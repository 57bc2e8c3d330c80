package synth

import (
	"reflect"
	"strings"
	"testing"

	"scarecrow/internal/core"
)

// legacyDB reconstructs the pre-fix deception database by ablating
// the Deep Freeze entries the planted-gap fix added to core.NewDB —
// the state of the world before ISSUE 8 landed.
func legacyDB() *core.DB {
	db := core.NewDB()
	db.RemoveFile(`C:\Program Files\Faronics\Deep Freeze\DFServ.exe`)
	db.RemoveProcess("dfserv.exe")
	db.RemoveProcess("frzstate2k.exe")
	db.RemoveRegKey(`HKLM\SOFTWARE\Faronics\Deep Freeze 6`)
	return db
}

// plantedGap is the known camouflage gap of ISSUE 8 satellite 1: a
// conjunction spanning TechTiming + TechWearTear + TechFile whose
// file leaf (a Faronics Deep Freeze binary — reboot-restore software
// the legacy DB had no entry for) defeats the deception. Under the
// legacy DB it survives; its minimal core is the single file leaf.
func plantedGap() *Node {
	return &Node{Op: OpAnd, Kids: []*Node{
		{Op: OpLeaf, Entry: "time:sleep-skip", Variant: 1},
		{Op: OpLeaf, Entry: "wt:dns-cache"},
		{Op: OpLeaf, Entry: "file:deepfreeze"},
	}}
}

// TestPlantedGapSurvivesLegacyDB pins the gap's ground truth: the
// planted conjunction survives (payload runs in both executions)
// against the legacy database and deactivates against the stock one.
func TestPlantedGapSurvivesLegacyDB(t *testing.T) {
	ev := NewEvaluator(42)
	ev.DB = legacyDB()
	out := ev.Evaluate(plantedGap())
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Gap {
		t.Fatalf("planted gap did not survive the legacy DB: category=%v rawMutations=%d",
			out.Category, out.RawMutations)
	}

	stock := NewEvaluator(42)
	if out := stock.Evaluate(plantedGap()); out.Gap {
		t.Fatalf("planted gap still survives the STOCK DB — the Deep Freeze fix regressed (category=%v)",
			out.Category)
	}
}

// TestPlantedGapFoundAndMinimized is the bounded-budget discovery
// proof: a fixed-seed fuzzer campaign against the legacy DB
// rediscovers the Deep Freeze gap within 400 generations and
// minimizes it to a single-leaf core naming a Deep Freeze resource.
func TestPlantedGapFoundAndMinimized(t *testing.T) {
	f := NewFuzzer(1, 3)
	f.Ev.DB = legacyDB()
	rep := f.Run(400)
	if rep.Generations != 400 {
		t.Fatalf("generations = %d, want 400", rep.Generations)
	}
	var hit *GapReport
	for i, g := range rep.Gaps {
		if g.Kind != GapMissingDBEntry {
			continue
		}
		min := rep.MinimizedGaps[g.Fingerprint]
		for _, leaf := range min.Leaves() {
			switch leaf.Entry {
			case "file:deepfreeze", "proc:deepfreeze", "reg:deepfreeze":
				hit = &rep.Gaps[i]
			}
		}
	}
	if hit == nil {
		for _, g := range rep.Gaps {
			t.Logf("found gap: [%s] %s", g.Kind, g.Canonical)
		}
		t.Fatal("fuzzer did not rediscover the planted Deep Freeze gap within 400 generations at seed 1")
	}
	min := rep.MinimizedGaps[hit.Fingerprint]
	if min.Size() != 1 {
		t.Errorf("minimized planted gap has %d nodes, want 1 (single leaf): %s", min.Size(), min.Canonical())
	}
	if hit.Kind != GapMissingDBEntry {
		t.Errorf("planted gap classified %s, want %s", hit.Kind, GapMissingDBEntry)
	}
	if len(hit.Resources) == 0 {
		t.Error("planted gap report names no resource")
	}
}

// TestFuzzerDeterministic: two campaigns at the same seed and budget
// produce identical reports — generation, evaluation seeding, and
// ordering are all pure functions of (seed, budget, depth).
func TestFuzzerDeterministic(t *testing.T) {
	run := func() Report {
		f := NewFuzzer(7, 3)
		f.Ev.DB = legacyDB()
		return f.Run(150)
	}
	a, b := run(), run()
	if a.Generations != b.Generations || a.UniqueCoverage != b.UniqueCoverage || len(a.Gaps) != len(b.Gaps) {
		t.Fatalf("campaign totals diverge: %+v vs %+v", a, b)
	}
	for i := range a.Gaps {
		if a.Gaps[i].Fingerprint != b.Gaps[i].Fingerprint || a.Gaps[i].Canonical != b.Gaps[i].Canonical {
			t.Fatalf("gap %d diverges: %q vs %q", i, a.Gaps[i].Canonical, b.Gaps[i].Canonical)
		}
	}
}

// TestCoverageGrowth: the coverage signal actually grows — a modest
// fixed-seed campaign lights up a healthy slice of the api:/hook:/db:
// alphabet, and unique coverage is monotone over additional budget.
func TestCoverageGrowth(t *testing.T) {
	f := NewFuzzer(3, 3)
	first := f.Run(60).UniqueCoverage
	if first < 20 {
		t.Errorf("60 generations produced only %d unique coverage keys", first)
	}
	second := f.Run(120).UniqueCoverage
	if second < first {
		t.Errorf("coverage shrank with budget: %d then %d", first, second)
	}
}

// TestCampaignHeadline gates the fuzzer's reference campaign (seed 1,
// 2000 generations, depth 3) on the stock DB. Coverage must grow by at
// least 15 keys per 1k generations (the campaign measures 42.5): a fuzzer
// below that has lost its search signal to a generator or
// coverage-extraction regression, not to a saturated catalog. The
// actionable gaps are pinned per kind, so a change that opens or closes
// one has to say so here; inverted probes, which no deception can close,
// are reported but not gated.
func TestCampaignHeadline(t *testing.T) {
	rep := NewFuzzer(1, 3).Run(2000)
	t.Logf("%d generations, %d unique coverage keys, gaps: %s", rep.Generations, rep.UniqueCoverage, rep.Headline())
	if perK := float64(rep.UniqueCoverage) * 1000 / float64(rep.Generations); perK < 15 {
		t.Errorf("coverage growth %.1f keys per 1k generations, want >= 15", perK)
	}
	got := map[GapKind]int{}
	for _, g := range rep.Gaps {
		if g.Kind != GapInvertedProbe {
			got[g.Kind]++
		}
	}
	if want := map[GapKind]int{GapHookBypass: 11, GapMissingDBEntry: 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("actionable gaps by kind = %v, want %v", got, want)
	}
	if h, want := rep.Headline(), "13 actionable (hook-bypass 11, missing-db-entry 2), "; !strings.HasPrefix(h, want) {
		t.Errorf("headline %q, want it to begin %q", h, want)
	}
}

// TestEvaluatorMemoizes: re-evaluating the same predicate costs no
// second lab run.
func TestEvaluatorMemoizes(t *testing.T) {
	ev := NewEvaluator(9)
	n := plantedGap()
	_ = ev.Evaluate(n)
	runs := ev.Runs
	_ = ev.Evaluate(n.Clone())
	if ev.Runs != runs {
		t.Fatalf("memo miss: runs went %d → %d for an identical predicate", runs, ev.Runs)
	}
}

// TestBatchMatchesSerial: the worker-pool fan-out returns exactly the
// serial outcomes, in input order.
func TestBatchMatchesSerial(t *testing.T) {
	gen := NewGenerator(5, 3)
	nodes := make([]*Node, 12)
	for i := range nodes {
		nodes[i] = gen.Generate()
	}
	serial := NewEvaluator(5)
	par := NewEvaluator(5)
	par.Workers = 4
	want := serial.EvaluateBatch(nodes)
	got := par.EvaluateBatch(nodes)
	for i := range want {
		if want[i].Fingerprint != got[i].Fingerprint || want[i].Gap != got[i].Gap ||
			want[i].Category != got[i].Category {
			t.Fatalf("outcome %d diverges: %+v vs %+v", i, want[i], got[i])
		}
	}
}
