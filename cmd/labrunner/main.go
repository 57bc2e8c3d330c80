// Command labrunner regenerates every table and figure of the paper's
// evaluation on the simulated cluster:
//
//	labrunner -experiment table1        Table I   (13 Joe Security samples)
//	labrunner -experiment table2        Table II  (Pafish × 3 environments)
//	labrunner -experiment table3        Table III (wear-and-tear steering)
//	labrunner -experiment figure4       Figure 4  (1,054-sample MalGene corpus)
//	labrunner -experiment benign        §IV-C     (top-20 CNET programs)
//	labrunner -experiment crawl         §II-C     (public-sandbox crawl)
//	labrunner -experiment case1         Case I    (Kasidet)
//	labrunner -experiment case2         Case II   (WannaCry + Locky)
//	labrunner -experiment isolation     §VI-B     (profile isolation)
//	labrunner -experiment overhead      §III      (hook overhead)
//	labrunner -experiment all           everything above
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/crawler"
	"scarecrow/internal/malware"
)

// noPool disables the lab's template snapshot pool, rebuilding every
// machine from scratch (the pre-pool behaviour; results are identical
// either way, only slower).
var noPool bool

// newLab builds an experiment lab honoring the -no-pool flag.
func newLab(seed int64) *analysis.Lab {
	lab := analysis.NewLab(seed)
	lab.DisablePooling = noPool
	return lab
}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	seed := flag.Int64("seed", 42, "deterministic seed")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of tables")
	flag.BoolVar(&noPool, "no-pool", false, "rebuild machines from scratch instead of cloning the template snapshot")
	flag.Parse()
	var err error
	if *asJSON {
		err = runJSON(*experiment, *seed)
	} else {
		err = run(*experiment, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "labrunner:", err)
		os.Exit(1)
	}
}

// runJSON emits one experiment's report as JSON (for scripting around the
// lab). Experiments that only print prose are not exposed here.
func runJSON(experiment string, seed int64) error {
	builders := map[string]func(int64) (any, error){
		"table1": func(s int64) (any, error) { return analysis.Table1(newLab(s)), nil },
		"table2": func(s int64) (any, error) { return analysis.Table2(s) },
		"table3": func(s int64) (any, error) { return analysis.Table3(s) },
		"figure4": func(s int64) (any, error) {
			return analysis.Figure4(newLab(s), malware.MalGeneCorpus()), nil
		},
		"benign":    func(s int64) (any, error) { return analysis.RunBenign(s) },
		"kernel":    func(s int64) (any, error) { return analysis.KernelExtension(s), nil },
		"fullstack": func(s int64) (any, error) { return analysis.FullStack(s), nil },
		"crawl": func(s int64) (any, error) {
			r := crawler.CrawlPublicSandboxes(s)
			return map[string]any{
				"files": len(r.Files), "processes": len(r.Processes),
				"registry_keys": len(r.RegistryKeys), "configs": r.SandboxConfigs,
			}, nil
		},
	}
	builder, ok := builders[experiment]
	if !ok {
		return fmt.Errorf("experiment %q has no JSON form", experiment)
	}
	report, err := builder(seed)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func run(experiment string, seed int64) error {
	runners := map[string]func(int64) error{
		"table1":    table1,
		"table2":    table2,
		"table3":    table3,
		"figure4":   figure4,
		"benign":    benignImpact,
		"crawl":     crawl,
		"case1":     case1,
		"case2":     case2,
		"isolation": isolation,
		"overhead":  overhead,
		"kernel":    kernelExt,
		"fullstack": fullStack,
		"survey":    survey,
		"baseline":  baseline,
		"toolkill":  toolKill,
	}
	if experiment == "all" {
		for _, name := range []string{
			"table1", "figure4", "table2", "table3", "benign",
			"crawl", "case1", "case2", "isolation", "toolkill",
			"kernel", "fullstack", "baseline", "survey", "overhead",
		} {
			if err := runners[name](seed); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	runner, ok := runners[experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return runner(seed)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table1(seed int64) error {
	header("Table I — effectiveness on the Joe Security samples")
	report := analysis.Table1(newLab(seed))
	fmt.Print(report)
	fmt.Println(report.Health)
	return nil
}

func table2(seed int64) error {
	header("Table II — Pafish across three environments, with/without Scarecrow")
	report, err := analysis.Table2(seed)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func table3(seed int64) error {
	header("Table III — wear-and-tear artifacts faked by Scarecrow")
	report, err := analysis.Table3(seed)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func figure4(seed int64) error {
	header("Figure 4 — effectiveness on the MalGene corpus (this takes a while)")
	start := time.Now()
	report := analysis.Figure4(newLab(seed), malware.MalGeneCorpus())
	fmt.Print(report)
	fmt.Println(report.Health)
	fmt.Printf("(corpus evaluated in %.1fs wall time)\n", time.Since(start).Seconds())
	return nil
}

func benignImpact(seed int64) error {
	header("§IV-C — impact on the top-20 CNET programs")
	report, err := analysis.RunBenign(seed)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func crawl(seed int64) error {
	header("§II-C — public-sandbox crawl and diff")
	start := time.Now()
	r := crawler.CrawlPublicSandboxes(seed)
	fmt.Println(analysis.CrawlReport{
		Files: len(r.Files), Processes: len(r.Processes),
		RegistryKeys: len(r.RegistryKeys), Elapsed: time.Since(start),
	})
	fmt.Println("example unique processes:", r.Processes[:5])
	for _, cfg := range r.SandboxConfigs {
		fmt.Printf("sandbox config: disk=%dGB ram=%dGB cores=%d host=%s user=%s\n",
			cfg.DiskTotalBytes>>30, cfg.RAMBytes>>30, cfg.NumCores, cfg.ComputerName, cfg.UserName)
	}
	return nil
}

func case1(seed int64) error {
	header("Case I — Kasidet's comprehensive evasive disjunction")
	lab := newLab(seed)
	res := lab.RunSampleSeeded(malware.Kasidet(), seed^1)
	if res.Err != nil {
		return res.Err
	}
	fmt.Printf("without scarecrow: %s\n", res.BehaviourWithout())
	fmt.Printf("with scarecrow:    %s\n", res.BehaviourWith())
	fmt.Printf("deactivated: %v, first trigger: %s\n", res.Verdict.Deactivated, res.FirstTrigger())
	fmt.Printf("the disjunction has %d propositions; one deceptive answer sufficed\n",
		len(malware.Kasidet().Checks))
	return nil
}

func case2(seed int64) error {
	header("Case II — deactivating ransomware")
	for _, s := range []func() *malware.Specimen{malware.WannaCry, malware.Locky} {
		report, err := analysis.RunCaseStudy(s(), seed)
		if err != nil {
			return err
		}
		fmt.Print(report)
	}
	return nil
}

func isolation(seed int64) error {
	header("§VI-B — profile isolation against a Scarecrow-aware detector")
	detector := malware.ScarecrowAware()
	stock := newLab(seed)
	res := stock.RunSampleSeeded(detector, seed^1)
	if res.Err != nil {
		return res.Err
	}
	fmt.Printf("stock deployment:    deactivated=%v (conflicting vendors unmask the engine)\n",
		res.Verdict.Deactivated)
	iso := newLab(seed)
	iso.Config.ProfileIsolation = true
	res = iso.RunSampleSeeded(detector, seed^1)
	if res.Err != nil {
		return res.Err
	}
	fmt.Printf("profile isolation:   deactivated=%v (one consistent vendor identity)\n",
		res.Verdict.Deactivated)
	return nil
}

func kernelExt(seed int64) error {
	header("§VI-A extension — kernel syscall-gate hooking vs raw-syscall bypass")
	fmt.Print(analysis.KernelExtension(seed))
	return nil
}

func fullStack(seed int64) error {
	header("§VI-A ladder — user hooks vs kernel gate vs deception hypervisor (full corpus)")
	fmt.Print(analysis.FullStack(seed))
	return nil
}

func baseline(seed int64) error {
	header("Motivation — how much of the corpus evades stock analysis rigs (no Scarecrow)")
	full := malware.MalGeneCorpus()
	var slice []*malware.Specimen
	for i := 0; i < len(full); i += 4 {
		slice = append(slice, full[i])
	}
	report, err := analysis.EvasionBaseline(slice, seed)
	if err != nil {
		return err
	}
	fmt.Println(report)
	rigs := make([]string, 0, len(report.PerRig))
	for rig := range report.PerRig {
		rigs = append(rigs, rig)
	}
	sort.Strings(rigs)
	for _, rig := range rigs {
		fmt.Printf("  evaded %s: %d\n", rig, report.PerRig[rig])
	}
	return nil
}

func survey(seed int64) error {
	header("§II-C learning at scale — MalGene signature survey over a corpus slice")
	full := malware.MalGeneCorpus()
	var slice []*malware.Specimen
	for i := 0; i < len(full); i += 4 {
		slice = append(slice, full[i])
	}
	report, err := analysis.SurveySignatures(slice, seed)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func toolKill(seed int64) error {
	header("§II-B(b) — counter-forensic tool killing vs protected decoys")
	res := newLab(seed).RunSampleSeeded(malware.ToolKiller(), seed^1)
	if res.Err != nil {
		return res.Err
	}
	fmt.Printf("without scarecrow: %s\n", res.BehaviourWithout())
	fmt.Printf("with scarecrow:    %s (decoy tools refused termination)\n", res.BehaviourWith())
	fmt.Printf("deactivated: %v\n", res.Verdict.Deactivated)
	return nil
}

func overhead(int64) error {
	header("§III — per-call deception overhead (virtual time)")
	unhooked, hooked, err := analysis.HookOverhead()
	if err != nil {
		return err
	}
	fmt.Printf("RegOpenKeyEx unhooked: %v, hooked: %v\n", unhooked, hooked)
	return nil
}
