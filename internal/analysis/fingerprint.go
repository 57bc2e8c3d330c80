package analysis

import (
	"fmt"
	"strings"
	"time"

	"scarecrow/internal/core"
	"scarecrow/internal/pafish"
	"scarecrow/internal/weartear"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// Table2Cell is one (environment, category) pair of Table II.
type Table2Cell struct {
	With    int
	Without int
}

// Table2Report reproduces Table II: Pafish trigger counts per category on
// the three environments, with and without Scarecrow.
type Table2Report struct {
	// Environments in column order: bare-metal sandbox, VM sandbox,
	// end-user machine.
	Environments []string
	// Cells maps environment -> category -> counts.
	Cells map[string]map[string]Table2Cell
	// Totals maps category -> feature count.
	Totals map[string]int
}

// String renders the table.
func (r Table2Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s", "Feature Categories")
	for _, env := range r.Environments {
		fmt.Fprintf(&sb, " | %-13s", clip(env, 13))
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-24s", "(# of features)")
	for range r.Environments {
		fmt.Fprintf(&sb, " | %5s %5s ", "w/", "w/o")
	}
	sb.WriteString("\n" + strings.Repeat("-", 24+len(r.Environments)*16) + "\n")
	for _, cat := range pafish.CategoryOrder {
		fmt.Fprintf(&sb, "%-20s (%2d)", clip(cat, 20), r.Totals[cat])
		for _, env := range r.Environments {
			cell := r.Cells[env][cat]
			fmt.Fprintf(&sb, " | %5d %5d ", cell.With, cell.Without)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// pafishOn runs the Pafish battery on a machine profile, optionally under
// Scarecrow.
func pafishOn(profile winsim.ProfileName, seed int64, protected bool) (pafish.Report, error) {
	var report pafish.Report
	body := func(ctx *winapi.Context) int {
		report = pafish.Run(ctx)
		return winapi.ExitOK
	}
	var engine *core.Engine
	if protected {
		engine = core.NewEngine(core.NewDB(), core.RecommendedConfig(string(profile)))
	}
	sys := winapi.NewSystem(winsim.NewProfileMachine(profile, seed))
	_, err := execute(sys, program{image: `C:\pafish\pafish.exe`, name: "pafish.exe", body: body}, engine, nil, nil)
	return report, err
}

// Table2 reproduces the Table II experiment. The with-Scarecrow VM column
// uses the hardened Cuckoo guest, matching the paper's setup (CPUID
// results and MAC updated alongside the Scarecrow deployment).
func Table2(seed int64) (Table2Report, error) {
	type envSpec struct {
		name string
		raw  winsim.ProfileName
		sc   winsim.ProfileName
	}
	envs := []envSpec{
		{"Bare-metal sandbox", winsim.ProfileBareMetalSandbox, winsim.ProfileBareMetalSandbox},
		{"VM sandbox", winsim.ProfileCuckooSandbox, winsim.ProfileCuckooHardened},
		{"End-user machine", winsim.ProfileEndUser, winsim.ProfileEndUser},
	}
	report := Table2Report{Cells: make(map[string]map[string]Table2Cell)}
	for _, env := range envs {
		report.Environments = append(report.Environments, env.name)
		with, err := pafishOn(env.sc, seed, true)
		if err != nil {
			return Table2Report{}, err
		}
		without, err := pafishOn(env.raw, seed, false)
		if err != nil {
			return Table2Report{}, err
		}
		cells := make(map[string]Table2Cell)
		wc, woc := with.CategoryCounts(), without.CategoryCounts()
		for _, cat := range pafish.CategoryOrder {
			cells[cat] = Table2Cell{With: wc[cat], Without: woc[cat]}
		}
		report.Cells[env.name] = cells
		if report.Totals == nil {
			report.Totals = with.CategoryTotals()
		}
	}
	return report, nil
}

// Table3Row is one faked artifact of Table III with its steered value.
type Table3Row struct {
	Artifact     string
	Category     string
	Top5         bool
	GenuineValue float64
	FakedValue   float64
	APIs         []string
}

// Table3Report reproduces the wear-and-tear experiment: artifact steering
// plus the classifier flip.
type Table3Report struct {
	Rows []Table3Row
	// RawLabel and ProtectedLabel are the decision-tree classifications of
	// the end-user machine without and with the wear-and-tear extension.
	RawLabel       weartear.Label
	ProtectedLabel weartear.Label
	// TreeAccuracy is the classifier's holdout accuracy.
	TreeAccuracy float64
}

// Steered reports whether Scarecrow flipped the classification.
func (r Table3Report) Steered() bool {
	return r.RawLabel == weartear.LabelEndUser && r.ProtectedLabel == weartear.LabelSandbox
}

// String renders the report like Table III (artifact, faked value, APIs).
func (r Table3Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-9s %-5s %10s %10s  %s\n", "artifact", "category", "top5", "genuine", "faked", "associated APIs")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-18s %-9s %-5v %10.0f %10.0f  %s\n",
			row.Artifact, row.Category, row.Top5, row.GenuineValue, row.FakedValue,
			strings.Join(row.APIs, ","))
	}
	fmt.Fprintf(&sb, "classifier: raw end-user -> %s, with scarecrow -> %s (holdout accuracy %.2f)\n",
		r.RawLabel, r.ProtectedLabel, r.TreeAccuracy)
	return sb.String()
}

// Table3 reproduces the wear-and-tear steering experiment of Table III.
func Table3(seed int64) (Table3Report, error) {
	tree, err := weartear.TrainDefault(seed)
	if err != nil {
		return Table3Report{}, fmt.Errorf("analysis: training wear-and-tear tree: %w", err)
	}
	holdout := weartear.Corpus(20, seed+99)

	genuine := weartear.ExtractFrom(winsim.NewEndUserMachine(seed))

	var deceived []float64
	body := func(ctx *winapi.Context) int {
		deceived = weartear.Vector(ctx)
		return winapi.ExitOK
	}
	cfg := core.RecommendedConfig(string(winsim.ProfileEndUser))
	cfg.WearAndTear = true
	sys := winapi.NewSystem(winsim.NewEndUserMachine(seed))
	prober := program{image: `C:\weartear\prober.exe`, name: "prober.exe", body: body}
	if _, err := execute(sys, prober, core.NewEngine(core.NewDB(), cfg), nil, nil); err != nil {
		return Table3Report{}, err
	}

	report := Table3Report{
		RawLabel:       tree.Classify(genuine),
		ProtectedLabel: tree.Classify(deceived),
		TreeAccuracy:   tree.Accuracy(holdout),
	}
	for i, art := range weartear.All() {
		if !art.Faked {
			continue
		}
		report.Rows = append(report.Rows, Table3Row{
			Artifact:     art.Name,
			Category:     art.Category,
			Top5:         art.Top5,
			GenuineValue: genuine[i],
			FakedValue:   deceived[i],
			APIs:         art.APIs,
		})
	}
	return report, nil
}

// CrawlReport wraps the §II-C crawl outcome for the CLI.
type CrawlReport struct {
	Files        int
	Processes    int
	RegistryKeys int
	Elapsed      time.Duration
}

// String renders the crawl summary.
func (r CrawlReport) String() string {
	return fmt.Sprintf("crawl-and-diff: %d unique files, %d unique processes, %d unique registry entries (%.1fs)",
		r.Files, r.Processes, r.RegistryKeys, r.Elapsed.Seconds())
}
