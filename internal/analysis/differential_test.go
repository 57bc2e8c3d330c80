package analysis

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
)

// stratifiedCorpus returns every len/n-th sample of the MalGene corpus —
// about n samples spanning all 61 families and every evasion mechanism, the
// same slicing TestSignatureSurvey uses.
func stratifiedCorpus(n int) []*malware.Specimen {
	full := malware.MalGeneCorpus()
	step := len(full) / n
	if step < 1 {
		step = 1
	}
	var out []*malware.Specimen
	for i := 0; i < len(full); i += step {
		out = append(out, full[i])
	}
	return out
}

// TestDifferentialPooledVsFresh is the headline harness of the snapshot
// pool: two sweeps over a stratified ~100-sample corpus slice, one cloning
// machines from the per-profile template snapshot (the default) and one
// rebuilding every machine from scratch (DisablePooling), must produce
// bit-identical SampleResults — verdicts, trace summaries, trigger streams,
// alerts, virtual clocks, everything. Any divergence means a clone leaked
// state the sharing contract in winsim/snapshot.go promised it would not.
func TestDifferentialPooledVsFresh(t *testing.T) {
	corpus := stratifiedCorpus(100)

	pooled := NewLab(42)
	fresh := NewLab(42)
	fresh.DisablePooling = true

	pooledResults, pooledReport := pooled.Sweep(corpus)
	freshResults, freshReport := fresh.Sweep(corpus)

	if len(pooledResults) != len(freshResults) {
		t.Fatalf("result counts differ: pooled %d, fresh %d", len(pooledResults), len(freshResults))
	}
	mismatches := 0
	for i := range pooledResults {
		if !reflect.DeepEqual(pooledResults[i], freshResults[i]) {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("sample %s diverged:\npooled: %+v\nfresh:  %+v",
					corpus[i].ID, pooledResults[i], freshResults[i])
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d samples diverged between pooled and fresh sweeps", mismatches, len(corpus))
	}

	// Sweep health must match too, apart from wall-clock time.
	pooledReport.Wall, freshReport.Wall = 0, 0
	if !reflect.DeepEqual(pooledReport, freshReport) {
		t.Errorf("sweep reports diverged:\npooled: %+v\nfresh:  %+v", pooledReport, freshReport)
	}
}

// TestDifferentialTable1 re-runs the Table I experiment both ways: the
// pooled rows must equal the fresh-build rows cell for cell, and both must
// still deactivate 12 of 13 samples as the paper reports.
func TestDifferentialTable1(t *testing.T) {
	pooledLab := NewLab(42)
	freshLab := NewLab(42)
	freshLab.DisablePooling = true

	pooled := Table1(pooledLab)
	fresh := Table1(freshLab)

	if !reflect.DeepEqual(pooled.Rows, fresh.Rows) {
		t.Errorf("Table 1 rows diverged:\npooled: %+v\nfresh:  %+v", pooled.Rows, fresh.Rows)
	}
	if got := pooled.DeactivatedCount(); got != 12 {
		t.Errorf("pooled Table 1 deactivated %d/13 samples, paper reports 12", got)
	}
}

// TestPooledRunDeterminism is the testing/quick property behind the pool:
// for any (sample, seed) pair, running the sample twice through the same
// pooled lab yields identical results — the template snapshot is never
// perturbed by the runs cloned from it.
func TestPooledRunDeterminism(t *testing.T) {
	corpus := stratifiedCorpus(100)
	lab := NewLab(42)
	property := func(sampleIdx uint16, seed int64) bool {
		s := corpus[int(sampleIdx)%len(corpus)]
		a := lab.RunSampleSeeded(s, seed)
		b := lab.RunSampleSeeded(s, seed)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 15}); err != nil {
		t.Errorf("pooled runs are not deterministic: %v", err)
	}
}

// TestPooledClonesDoNotShareRecorder is the regression test for the
// template-reuse bug class: machines cloned from the same snapshot must not
// share a trace.Recorder (or RNG), or concurrent runs interleave each
// other's kernel events. Run under -race this also catches unsynchronized
// sharing that happens to produce disjoint traces.
func TestPooledClonesDoNotShareRecorder(t *testing.T) {
	lab := NewLab(42)
	m1 := lab.acquireMachine(1)
	m2 := lab.acquireMachine(2)
	if m1 == m2 {
		t.Fatal("acquireMachine returned the same machine twice")
	}
	if m1.Tracer == m2.Tracer {
		t.Fatal("cloned machines share a trace.Recorder")
	}
	if m1.Rand() == m2.Rand() {
		t.Fatal("cloned machines share an RNG")
	}

	// Concurrent clones each record their own marker stream; afterwards
	// every machine's trace must contain only its own markers.
	const clones, events = 8, 200
	machines := make([]int, clones)
	var wg sync.WaitGroup
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m := lab.acquireMachine(int64(100 + c))
			for i := 0; i < events; i++ {
				m.Tracer.Record(trace.Event{
					Kind:   trace.KindFileWrite,
					Target: fmt.Sprintf("clone-%d", c),
				})
			}
			machines[c] = countForeign(m.Tracer, fmt.Sprintf("clone-%d", c))
		}(c)
	}
	wg.Wait()
	for c, foreign := range machines {
		if foreign != 0 {
			t.Errorf("clone %d saw %d events from other clones in its trace", c, foreign)
		}
	}
}

// countForeign returns how many recorded events do not carry the given
// target marker.
func countForeign(r *trace.Recorder, marker string) int {
	n := 0
	for _, e := range r.Events() {
		if e.Target != marker {
			n++
		}
	}
	return n
}
