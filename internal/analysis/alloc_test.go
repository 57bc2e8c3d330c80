package analysis

import (
	"bytes"
	"encoding/json"
	"testing"

	"scarecrow/internal/malware"
)

// sampleDoc runs one real specimen through the lab and returns its verdict
// document — the same shape the service marshals on every completion.
func sampleDoc(t *testing.T) VerdictDoc {
	t.Helper()
	lab := NewLab(0)
	s, err := malware.Resolve("kasidet")
	if err != nil {
		t.Fatal(err)
	}
	res := lab.RunSampleSeeded(s, 1)
	if res.Err != nil {
		t.Fatalf("lab run failed: %v", res.Err)
	}
	return res.Doc()
}

// AppendJSON exists so the service can render verdicts without a fresh
// buffer per request; this pins the pooled encoder's steady state.
func TestAppendJSONAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector intentionally defeats sync.Pool reuse; the budget is unmeasurable")
	}
	doc := sampleDoc(t)
	var buf []byte
	var err error
	// Warm the destination buffer to its working size first.
	if buf, err = doc.AppendJSON(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf, err = doc.AppendJSON(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	// One allocation per op is the encoding/json floor for this document;
	// anything above 2 means the encoder pool or buffer reuse regressed.
	if allocs > 2 {
		t.Errorf("AppendJSON allocates %.1f objects/op, budget is 2", allocs)
	}
}

// AppendJSON must be byte-identical to json.Marshal: verdict bytes are the
// store's canonical record format, and two renderings of the same document
// must never diverge (determinism is what makes last-write-wins exact).
func TestAppendJSONMatchesMarshal(t *testing.T) {
	doc := sampleDoc(t)
	want, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := doc.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON diverges from json.Marshal:\n got %s\nwant %s", got, want)
	}
	// Appending to a non-empty prefix must leave the prefix intact.
	withPrefix, err := doc.AppendJSON([]byte("prefix:"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withPrefix, append([]byte("prefix:"), want...)) {
		t.Fatalf("AppendJSON clobbered its prefix: %s", withPrefix)
	}
}

// A spawn-loop verdict is dominated by per-spawn work, so a per-spawn
// regression shows up in the whole run's count. mg0000 self-spawns 544
// times under Scarecrow and one pooled run costs 2,700 allocations, about
// 5 per spawn: the child's Process, module slice, API context and hook
// state, plus amortized map growth. Hook dispatch, the program lookup and
// the exit event allocate nothing. The budget leaves 5% headroom: one
// more allocation per spawn (a boxed result or argument, a per-call
// frame, a lowered image path, the launch queue reallocating) breaks it.
func TestSelfSpawnRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector intentionally defeats sync.Pool reuse; the budget is unmeasurable")
	}
	const budget = 2830
	s, err := malware.Resolve("mg:mg0000")
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLab(0)
	lab.RunSampleSeeded(s, 1) // build the template and warm the pools
	var res SampleResult
	allocs := testing.AllocsPerRun(5, func() {
		res = lab.RunSampleSeeded(s, 1)
	})
	if res.Err != nil {
		t.Fatalf("lab run failed: %v", res.Err)
	}
	if res.Protected.Summary.SelfSpawns <= SpawnLoopThreshold {
		t.Fatalf("mg0000 self-spawned %d times under Scarecrow; the budget assumes a spawn loop", res.Protected.Summary.SelfSpawns)
	}
	if allocs > budget {
		t.Errorf("RunSampleSeeded(mg0000) allocates %.0f objects (%d self-spawns), budget is %d",
			allocs, res.Protected.Summary.SelfSpawns, budget)
	}
}
