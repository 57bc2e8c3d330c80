// Command scarecrow launches one of the built-in specimens on a simulated
// machine, with and without the Scarecrow controller, and prints the
// behavioural comparison and trigger report — the scarecrow.exe experience
// of Figure 2, in the simulation.
//
//	scarecrow -sample wannacry -profile end-user
//	scarecrow -sample joe:61f847b
//	scarecrow -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

func main() {
	sample := flag.String("sample", "wannacry", "specimen: wannacry, locky, kasidet, scaware, joe:<id>, mg:<id>")
	profile := flag.String("profile", string(winsim.ProfileEndUser), "machine profile")
	seed := flag.Int64("seed", 42, "deterministic seed")
	list := flag.Bool("list", false, "list available specimens and exit")
	traceOut := flag.String("trace", "", "write the reported protected run's sample-subtree kernel trace (JSON lines) to this file")
	configPath := flag.String("config", "", "JSON deployment configuration (see core.FileConfig)")
	flag.Parse()

	if *list {
		printList()
		return
	}
	spec, err := resolve(*sample)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarecrow:", err)
		os.Exit(1)
	}
	cfg := core.RecommendedConfig(*profile)
	db := core.NewDB()
	if *configPath != "" {
		fc, err := core.LoadConfigFile(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scarecrow:", err)
			os.Exit(1)
		}
		cfg = fc.Apply(cfg, db)
	}
	lab := &analysis.Lab{
		Profile: winsim.ProfileName(*profile),
		Seed:    *seed,
		Config:  cfg,
		DB:      db,
	}
	res, events := lab.RunSampleTraced(spec, *seed^1)

	fmt.Printf("sample %s (%s) on %s\n", spec.ID, spec.Family, *profile)
	fmt.Printf("  notes:             %s\n", spec.Notes)
	fmt.Printf("  without scarecrow: %s\n", res.BehaviourWithout())
	fmt.Printf("  with scarecrow:    %s\n", res.BehaviourWith())
	fmt.Printf("  deactivated:       %v\n", res.Verdict.Deactivated)
	fmt.Printf("  first trigger:     %s\n", res.FirstTrigger())
	if n := len(res.Protected.Triggers); n > 1 {
		fmt.Printf("  total triggers:    %d\n", n)
		hist := make(map[core.Category]int)
		for _, tr := range res.Protected.Triggers {
			hist[tr.Category]++
		}
		for cat, count := range hist {
			fmt.Printf("    %-10s %d\n", cat, count)
		}
	}
	for _, alert := range res.Protected.Alerts {
		fmt.Printf("  ALERT: %s\n", alert)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, events); err != nil {
			fmt.Fprintln(os.Stderr, "scarecrow:", err)
			os.Exit(1)
		}
		fmt.Printf("  trace written:     %s\n", *traceOut)
	}
}

// writeTrace archives the reported protected run's sample-subtree kernel
// events as JSON lines (the Figure 3 proxy format).
func writeTrace(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolve looks the sample up in the shared specimen catalog
// (internal/malware), the same resolver the scarecrowd service uses.
func resolve(name string) (*malware.Specimen, error) {
	s, err := malware.Resolve(name)
	if err != nil {
		return nil, fmt.Errorf("unknown sample %q (try -list)", name)
	}
	return s, nil
}

func printList() {
	fmt.Println("case studies:", strings.Join(malware.CatalogNames(), ", "))
	fmt.Println("joe security samples (Table I):")
	for _, s := range malware.JoeSecuritySamples() {
		fmt.Printf("  joe:%s  %s\n", s.ID, s.Notes)
	}
	fmt.Println("malgene corpus: mg:mg0000 .. mg:mg1053 (1,054 samples, 61 families)")
}
