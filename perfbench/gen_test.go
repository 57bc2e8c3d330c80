package main

import (
	"reflect"
	"testing"
)

// requestList renders the first n requests of each workload for a seed.
func requestList(seed int64, n int) map[string][]cell {
	out := map[string][]cell{}
	cg := newCorpusGen(seed)
	fp := newFleetPlan(seed)
	for i := 0; i < n; i++ {
		out["corpus-cold"] = append(out["corpus-cold"], cg.at(i))
		out["fleet-replay"] = append(out["fleet-replay"], fp.at(i))
	}
	out["fleet-replay-committed"] = fp.committed
	fan := newFanoutPlan(seed)
	for round := 0; round < 2; round++ {
		for j := 0; j < 3; j++ {
			out["campaign-fanout"] = append(out["campaign-fanout"], fan.cells(round, j)...)
		}
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b := requestList(7, 3000), requestList(7, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different request lists")
	}
}

func TestDifferentSeedDifferentRequests(t *testing.T) {
	a, b := requestList(7, 3000), requestList(8, 3000)
	for name := range a {
		if reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", name)
		}
	}
}

func TestCorpusKeysAreDistinct(t *testing.T) {
	g := newCorpusGen(3)
	seen := map[string]bool{}
	ids := map[string]int{}
	n := 3 * len(g.ids)
	for i := 0; i < n; i++ {
		c := g.at(i)
		k := c.key()
		if seen[k] {
			t.Fatalf("request %d repeats key %s", i, k)
		}
		seen[k] = true
		ids[c.Specimen]++
		if c.Seed < 1 || c.Seed >= seedSpace {
			t.Fatalf("request %d seed %d outside [1, 2^40)", i, c.Seed)
		}
	}
	// Each pass is a permutation of the corpus.
	for id, count := range ids {
		if count != 3 {
			t.Fatalf("%s appeared %d times in 3 passes", id, count)
		}
	}
}

func TestFleetPlanShape(t *testing.T) {
	p := newFleetPlan(5)
	specs := sweepSpecimens()
	if want := len(specs) * len(fleetProfiles) * fleetSeedsPerCell; len(p.pool) != want {
		t.Fatalf("pool has %d cells, want %d", len(p.pool), want)
	}
	if len(p.committed) != len(p.pool)/2 {
		t.Fatalf("%d committed cells, want half of %d", len(p.committed), len(p.pool))
	}
	// The hottest cell must draw more requests than the coldest.
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[p.at(i).key()]++
	}
	if hot, cold := counts[p.pool[0].key()], counts[p.pool[len(p.pool)-1].key()]; hot <= 10*cold {
		t.Fatalf("popularity not skewed: hottest %d, coldest %d", hot, cold)
	}
}

func TestFanoutWindowsOverlapByHalf(t *testing.T) {
	p := newFanoutPlan(9)
	per := p.size()
	for round := 0; round < 3; round++ {
		if got := p.expectedHits(round, 0); got != 0 {
			t.Errorf("round %d: first campaign expects %d hits, want 0", round, got)
		}
		for j := 1; j < 4; j++ {
			if got := p.expectedHits(round, j); got != per/2 {
				t.Errorf("round %d campaign %d expects %d hits, want %d", round, j, got, per/2)
			}
		}
	}
	if a, b := p.seeds(0, 0), p.seeds(1, 0); a[0] == b[0] {
		t.Errorf("rounds 0 and 1 share their seed window base %d", a[0])
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "service", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "service", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 2, Layer: "store", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	if got["bench"] != 50 || got["service"] != 55 || got["store"] != 5 {
		t.Fatalf("self times = %v, want bench 50, service 55, store 5", got)
	}
}
