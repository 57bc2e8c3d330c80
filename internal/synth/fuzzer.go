package synth

import (
	"fmt"
	"sort"
	"strings"
)

// Fuzzer is the coverage-guided campaign loop: generate/mutate →
// evaluate through the lab → feed coverage back into corpus
// selection → minimize and deduplicate survivors. Deterministic for
// a fixed (seed, budget, max depth): generation, seeding, and
// evaluation are all pure functions of those inputs.
type Fuzzer struct {
	Gen *Generator
	Ev  *Evaluator
	// BatchSize is the generation width fanned through the evaluator
	// per round (the campaign-engine quota analogue).
	BatchSize int

	// corpus holds interesting predicates (those that produced new
	// coverage), in discovery order; mutation draws from it
	// round-robin.
	corpus []*Node
	// seen is the global coverage-key set.
	seen map[string]bool
	// gaps maps minimized-gap fingerprints to reports (dedup).
	gaps map[string]GapReport
	// minimized maps minimized fingerprints to their trees.
	minimized map[string]*Node

	// Stats.
	Generations  int
	CoverageSize int
	// NewCoverageEvents counts generations that produced at least one
	// unseen coverage key.
	NewCoverageEvents int
}

// NewFuzzer wires a generator and evaluator with a shared seed.
func NewFuzzer(seed int64, maxDepth int) *Fuzzer {
	return &Fuzzer{
		Gen:       NewGenerator(seed, maxDepth),
		Ev:        NewEvaluator(seed),
		BatchSize: 16,
		seen:      make(map[string]bool),
		gaps:      make(map[string]GapReport),
		minimized: make(map[string]*Node),
	}
}

// Report is a fuzzing campaign's outcome.
type Report struct {
	// Generations is the number of predicates evaluated (including
	// memo hits).
	Generations int
	// LabRuns is the number of actual paired lab executions.
	LabRuns int
	// UniqueCoverage is the final coverage-key count.
	UniqueCoverage int
	// Gaps are the minimized, deduplicated camouflage gaps, sorted
	// by kind then fingerprint.
	Gaps []GapReport
	// MinimizedGaps maps fingerprints to minimized predicates, for
	// fixture emission.
	MinimizedGaps map[string]*Node
}

// Run executes up to budget generations and returns the campaign
// report. Calling Run again continues the same campaign with a fresh
// budget.
func (f *Fuzzer) Run(budget int) Report {
	for f.Generations < budget {
		width := f.BatchSize
		if remaining := budget - f.Generations; width > remaining {
			width = remaining
		}
		batch := make([]*Node, width)
		for i := range batch {
			batch[i] = f.next()
		}
		outcomes := f.Ev.EvaluateBatch(batch)
		for i, out := range outcomes {
			f.Generations++
			f.observe(batch[i], out)
		}
	}
	return f.report()
}

// next picks the round's predicate: mutate a corpus member when one
// exists (biased to recent discoveries), otherwise generate fresh.
// One in four predicates is always fresh so the fuzzer keeps probing
// unexplored catalog regions even with a rich corpus.
func (f *Fuzzer) next() *Node {
	if len(f.corpus) == 0 || f.Generations%4 == 0 {
		return f.Gen.Generate()
	}
	parent := f.corpus[f.Generations%len(f.corpus)]
	return f.Gen.Mutate(parent)
}

// observe folds one outcome into coverage, corpus, and gap state.
func (f *Fuzzer) observe(n *Node, out Outcome) {
	if out.Err != nil {
		return
	}
	fresh := false
	for _, k := range out.Coverage {
		if !f.seen[k] {
			f.seen[k] = true
			fresh = true
		}
	}
	f.CoverageSize = len(f.seen)
	if fresh {
		f.NewCoverageEvents++
		f.corpus = append(f.corpus, n.Clone())
	}
	if !out.Gap {
		return
	}
	core := Minimize(n, f.Ev)
	fp := core.Fingerprint()
	if _, dup := f.gaps[fp]; dup {
		return
	}
	f.gaps[fp] = Diagnose(core, f.Ev.Entries())
	f.minimized[fp] = core
}

// report snapshots the campaign state into a Report with
// deterministic ordering.
func (f *Fuzzer) report() Report {
	r := Report{
		Generations:    f.Generations,
		LabRuns:        f.Ev.Runs,
		UniqueCoverage: f.CoverageSize,
		MinimizedGaps:  make(map[string]*Node, len(f.minimized)),
	}
	fps := make([]string, 0, len(f.gaps))
	for fp := range f.gaps {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		r.Gaps = append(r.Gaps, f.gaps[fp])
		r.MinimizedGaps[fp] = f.minimized[fp].Clone()
	}
	SortReports(r.Gaps)
	return r
}

// Headline tallies the campaign's gaps by kind, the actionable ones
// first: "13 actionable (hook-bypass 11, missing-db-entry 2), 62
// inverted-probe". Inverted probes stand apart because no deception can
// close them (see GapInvertedProbe).
func (r Report) Headline() string {
	var actionable, inverted int
	var kinds []string
	// Gaps are sorted by kind, so each kind is one run.
	for i := 0; i < len(r.Gaps); {
		j := i
		for j < len(r.Gaps) && r.Gaps[j].Kind == r.Gaps[i].Kind {
			j++
		}
		if r.Gaps[i].Kind == GapInvertedProbe {
			inverted += j - i
		} else {
			actionable += j - i
			kinds = append(kinds, fmt.Sprintf("%s %d", r.Gaps[i].Kind, j-i))
		}
		i = j
	}
	if len(kinds) == 0 {
		return fmt.Sprintf("0 actionable, %d %s", inverted, GapInvertedProbe)
	}
	return fmt.Sprintf("%d actionable (%s), %d %s", actionable, strings.Join(kinds, ", "), inverted, GapInvertedProbe)
}
