// Command scarefuzz hunts camouflage gaps: it runs a coverage-guided
// fuzzing campaign that composes evasive predicates from the evasion
// catalog, evaluates them through the analysis lab, and minimizes every
// survivor into the smallest predicate that defeats the deception DB.
//
//	scarefuzz -budget 5000 -seed 1                  # hunt, print gap reports
//	scarefuzz -budget 5000 -emit-gaps out/gaps      # also write replayable fixtures
//	scarefuzz -replay internal/synth/testdata/gaps/9381ffe49577e232.json
//
// Exit status: 0 on a clean run (replay matched, or hunt completed), 1 on
// an operational error, 2 when -replay found a fixture that no longer
// replays to its recorded expectation (a regression) or when -fail-on-db-gaps
// saw a missing-db-entry gap (the deception DB has a fixable hole).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/synth"
	"scarecrow/internal/winsim"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "campaign seed (generation and machine seeds)")
		budget   = flag.Int("budget", 2000, "generations to evaluate")
		maxDepth = flag.Int("max-depth", 3, "max predicate tree depth")
		workers  = flag.Int("workers", 0, "evaluation fan-out width (0 = GOMAXPROCS)")
		profile  = flag.String("profile", string(winsim.ProfileBareMetalSandbox), "machine profile")
		replay   = flag.String("replay", "", "replay one fixture file instead of fuzzing")
		emitGaps = flag.String("emit-gaps", "", "directory to write minimized-gap fixtures into (empty = report only)")
		jsonOut  = flag.Bool("json", false, "print the campaign report as JSON")
		failDB   = flag.Bool("fail-on-db-gaps", false, "exit 2 when any missing-db-entry gap is found")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}
	os.Exit(runHunt(*seed, *budget, *maxDepth, *workers, *profile, *emitGaps, *jsonOut, *failDB))
}

// runReplay re-evaluates one fixture and compares against its recorded
// expectation.
func runReplay(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarefuzz:", err)
		return 1
	}
	f, err := synth.DecodeFixture(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarefuzz:", err)
		return 1
	}
	ev := synth.NewEvaluator(f.Seed)
	if f.Profile != "" {
		ev.Profile = winsim.ProfileName(f.Profile)
	}
	out := ev.Evaluate(f.Predicate)
	if out.Err != nil {
		fmt.Fprintln(os.Stderr, "scarefuzz: replay error:", out.Err)
		return 1
	}
	got := out.Category.String()
	fmt.Printf("fixture   %s\npredicate %s\nprofile   %s seed %d\nexpect    %s\ngot       %s\n",
		f.Fingerprint, f.Predicate.Canonical(), f.Profile, f.Seed, f.Expect, got)
	if f.Expect != "" && got != f.Expect {
		fmt.Fprintf(os.Stderr, "scarefuzz: REGRESSION: fixture %s replayed to %s, want %s\n", f.Fingerprint, got, f.Expect)
		return 2
	}
	fmt.Println("ok")
	return 0
}

// runHunt runs one budgeted campaign and reports (optionally emitting
// fixtures for the minimized gaps).
func runHunt(seed int64, budget, maxDepth, workers int, profile, emitGaps string, jsonOut, failDB bool) int {
	f := synth.NewFuzzer(seed, maxDepth)
	f.Ev.Profile = winsim.ProfileName(profile)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f.Ev.Workers = workers

	start := time.Now()
	rep := f.Run(budget)
	wall := time.Since(start)

	if jsonOut {
		buf, err := json.MarshalIndent(struct {
			Generations    int               `json:"generations"`
			LabRuns        int               `json:"lab_runs"`
			WallS          float64           `json:"wall_s"`
			UniqueCoverage int               `json:"unique_coverage"`
			Gaps           []synth.GapReport `json:"gaps"`
		}{rep.Generations, rep.LabRuns, wall.Seconds(), rep.UniqueCoverage, rep.Gaps}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scarefuzz:", err)
			return 1
		}
		fmt.Println(string(buf))
	} else {
		fmt.Printf("scarefuzz: %s gaps; %d generations (%d lab runs) in %.2fs, %d unique coverage keys\n",
			rep.Headline(), rep.Generations, rep.LabRuns, wall.Seconds(), rep.UniqueCoverage)
		for _, g := range rep.Gaps {
			fmt.Printf("  [%s] %s\n      techniques: %v\n      %s\n", g.Kind, g.Canonical, g.Techniques, g.Advice)
		}
	}

	if emitGaps != "" {
		for _, g := range rep.Gaps {
			// Candidate fixtures record the OBSERVED category (survived —
			// the gap is still open). When a fix lands, flip expect to
			// "deactivated" and promote the file into
			// internal/synth/testdata/gaps/ as a regression fixture.
			n := rep.MinimizedGaps[g.Fingerprint]
			path, err := synth.WriteFixture(emitGaps, synth.Fixture{
				Predicate: n,
				Profile:   profile,
				Seed:      f.Ev.Seed,
				Expect:    analysis.VerdictSurvived.String(),
				Note:      "candidate gap (" + string(g.Kind) + "): " + g.Advice,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "scarefuzz:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "scarefuzz: wrote %s\n", path)
		}
	}

	if failDB {
		for _, g := range rep.Gaps {
			if g.Kind == synth.GapMissingDBEntry {
				fmt.Fprintf(os.Stderr, "scarefuzz: missing-db-entry gap found: %s (%s)\n", g.Canonical, g.Advice)
				return 2
			}
		}
	}
	return 0
}
