package analysis

import (
	"bytes"
	"testing"

	"scarecrow/internal/deter"
	"scarecrow/internal/malware"
)

// Stock ransomware on an unprotected machine must be detected and killed
// before it costs more than a handful of real files — the deterrence
// tier's headline guarantee.
func TestMonitoredWannaCryDeterred(t *testing.T) {
	l := NewLab(1)
	res := l.RunMonitoredSeeded(malware.WannaCry(), 42, MonitorOptions{})
	if res.Err != nil {
		t.Fatalf("monitored run failed: %v\n%s", res.Err, res.Stack)
	}
	if res.Category != VerdictDeterred {
		t.Fatalf("category = %s, want deterred (outcome: %+v)", res.Category, res.Outcome)
	}
	if !res.Outcome.Detected || len(res.Outcome.Detections) == 0 {
		t.Fatalf("deterred without detections: %+v", res.Outcome)
	}
	if res.Outcome.FilesLost > 5 {
		t.Fatalf("lost %d real files before the kill, want <= 5", res.Outcome.FilesLost)
	}
	if res.Outcome.TimeToDetect <= 0 || res.Outcome.EnforcedAt < res.Outcome.TimeToDetect {
		t.Fatalf("implausible timeline: detect at %v, enforce at %v",
			res.Outcome.TimeToDetect, res.Outcome.EnforcedAt)
	}
	if res.Outcome.CanariesTouched == 0 {
		t.Fatalf("no canary was touched; detection rested on %v", res.Outcome.Detections[0].Signal)
	}
}

// Every catalog ransomware row, stock and evasive-gated (the gated
// variants pass their evasive checks on bare metal, that is their point;
// cryptowall is the MalGene stand-in), must be deterred on every seed
// with no more than a handful of real files lost before the kill. Runs
// are deterministic, so each (row, seed) pair is a pass/fail check, not a
// sample of a distribution.
func TestMonitoredGatedVariantsDeterred(t *testing.T) {
	l := NewLab(1)
	for _, name := range []string{"wannacry", "locky", "cryptowall", "wannacry-gated", "locky-gated"} {
		s, err := malware.Resolve(name)
		if err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
		for _, seed := range []int64{1, 2, 3, 4, 7} {
			res := l.RunMonitoredSeeded(s, seed, MonitorOptions{})
			if res.Err != nil {
				t.Errorf("%s seed %d: %v", name, seed, res.Err)
				continue
			}
			if res.Category != VerdictDeterred {
				t.Errorf("%s seed %d: category = %s, want deterred", name, seed, res.Category)
			}
			if res.Outcome.FilesLost > 5 {
				t.Errorf("%s seed %d: lost %d files before kill, want <= 5", name, seed, res.Outcome.FilesLost)
			}
		}
	}
}

// Observe mode reports without enforcing: the payload runs to completion
// and the loss counter shows what deterrence prevented.
func TestMonitoredObserveMode(t *testing.T) {
	l := NewLab(1)
	res := l.RunMonitoredSeeded(malware.WannaCry(), 42, MonitorOptions{Action: deter.ActionObserve})
	if res.Err != nil {
		t.Fatalf("observe run failed: %v", res.Err)
	}
	if res.Category != VerdictSurvived || res.Outcome.Deterred {
		t.Fatalf("observe mode must never deter: %s %+v", res.Category, res.Outcome)
	}
	if !res.Outcome.Detected {
		t.Fatalf("observe mode still detects; got none")
	}
	if res.Outcome.FilesLost == 0 {
		t.Fatalf("unenforced ransomware lost no files — the kill-mode comparison is meaningless")
	}
	if len(res.Outcome.TamperedCanaries) == 0 {
		t.Fatalf("unenforced ransomware left canaries untampered")
	}
}

// Throttle mode must also deter: injected delay closes the window on the
// payload.
func TestMonitoredThrottleDeterred(t *testing.T) {
	l := NewLab(1)
	res := l.RunMonitoredSeeded(malware.WannaCry(), 42, MonitorOptions{Action: deter.ActionThrottle})
	if res.Err != nil {
		t.Fatalf("throttle run failed: %v", res.Err)
	}
	if res.Category != VerdictDeterred {
		t.Fatalf("throttle category = %s, want deterred", res.Category)
	}
}

// The monitored doc is byte-identical with pooling on and off — the
// differential-harness guarantee extended to the deterrence tier.
func TestMonitoredDifferentialPooling(t *testing.T) {
	run := func(disable bool) []byte {
		l := NewLab(1)
		l.DisablePooling = disable
		res := l.RunMonitoredSeeded(malware.WannaCry(), 9, MonitorOptions{})
		if res.Err != nil {
			t.Fatalf("run (pooling disabled=%v): %v", disable, res.Err)
		}
		b, err := res.Doc().Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	pooled, fresh := run(false), run(true)
	if !bytes.Equal(pooled, fresh) {
		t.Fatalf("pooled and from-scratch monitored docs differ:\n%s\nvs\n%s", pooled, fresh)
	}
}

// A specimen that never does anything destructive survives unmolested —
// no false-positive enforcement on benign-looking activity.
func TestMonitoredBenignSurvives(t *testing.T) {
	l := NewLab(1)
	s, err := malware.Resolve("spawner")
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	res := l.RunMonitoredSeeded(s, 3, MonitorOptions{})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if res.Category != VerdictSurvived {
		t.Fatalf("non-ransomware specimen got %s (detections: %v)", res.Category, res.Outcome.Detections)
	}
}
