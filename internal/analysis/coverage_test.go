package analysis

import (
	"sort"
	"strings"
	"testing"

	"scarecrow/internal/malware"
)

// TestCoverageKeysFromRealRun drives a registry-probing specimen through
// the lab and asserts the coverage set carries all three key classes —
// api: from the trace summary, hook: and db: from the trigger stream —
// sorted and duplicate-free.
func TestCoverageKeysFromRealRun(t *testing.T) {
	lab := NewLab(0)
	var spec *malware.Specimen
	for _, s := range malware.JoeSecuritySamples() {
		if len(s.Checks) > 0 {
			spec = s
			break
		}
	}
	if spec == nil {
		t.Fatal("no checked specimen in corpus")
	}
	res := lab.RunSampleSeeded(spec, lab.Seed^1)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	keys := res.CoverageKeys()
	if len(keys) == 0 {
		t.Fatal("no coverage keys from a real run")
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("coverage keys not sorted: %v", keys)
	}
	seen := map[string]bool{}
	classes := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("duplicate coverage key %q", k)
		}
		seen[k] = true
		switch {
		case strings.HasPrefix(k, CovAPI):
			classes[CovAPI] = true
		case strings.HasPrefix(k, CovHook):
			classes[CovHook] = true
		case strings.HasPrefix(k, CovDB):
			classes[CovDB] = true
		default:
			t.Errorf("coverage key %q has unknown prefix", k)
		}
	}
	if !classes[CovAPI] {
		t.Error("no api: coverage keys — trace summary not reflected")
	}
	if res.Verdict.Category == VerdictDeactivated && !classes[CovHook] {
		t.Error("deactivated run produced no hook: coverage keys")
	}
}

// TestCoverageKeysDeterministic runs the same specimen at the same seed
// twice and expects identical coverage sets.
func TestCoverageKeysDeterministic(t *testing.T) {
	lab := NewLab(0)
	spec := malware.JoeSecuritySamples()[0]
	a := lab.RunSampleSeeded(spec, 7).CoverageKeys()
	b := lab.RunSampleSeeded(spec, 7).CoverageKeys()
	if len(a) != len(b) {
		t.Fatalf("coverage cardinality unstable: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coverage key %d unstable: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestCoverageKeysErrorResult: error results contribute no coverage.
func TestCoverageKeysErrorResult(t *testing.T) {
	res := SampleResult{Err: errSentinel}
	if keys := res.CoverageKeys(); keys != nil {
		t.Fatalf("error result produced coverage %v", keys)
	}
}

var errSentinel = &coverageTestError{}

type coverageTestError struct{}

func (*coverageTestError) Error() string { return "sentinel" }
