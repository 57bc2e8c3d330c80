// Continuous learning: the §II-C pipeline that keeps Scarecrow's deceptive
// resource database growing. A sample evading on a resource the stock
// database does not know initially defeats Scarecrow; comparing its kernel
// traces from two environments (the MalGene technique) surfaces the
// evasion signature, the database learns it, and the next encounter is
// deactivated.
package main

import (
	"fmt"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/evasion"
	"scarecrow/internal/malgene"
	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

const novelKey = `HKLM\SOFTWARE\VxStream\AnalysisAgent`

func main() {
	sample := &malware.Specimen{
		ID: "novel01", Family: "demo", Source: malware.SourceMalGene,
		Image:   malware.ImagePath("novel01"),
		Checks:  []evasion.Check{evasion.NtRegistryKey("ntreg:vxstream", novelKey)},
		React:   malware.ReactTerminate(),
		Payload: malware.PayloadDropper("payload.exe"),
	}

	fmt.Println("1. stock database: the probe for an unknown sandbox key fails, the payload runs")
	stock := core.NewDB()
	fmt.Printf("   mutations under Scarecrow: %d\n", protectedMutations(sample, stock))

	fmt.Println("2. MalGene: align traces from an environment the sample evades vs one it infects")
	evaded := runRaw(sample, true)
	exposed := runRaw(sample, false)
	sig, ok := malgene.ExtractSignature(evaded, exposed)
	if !ok {
		panic("no signature extracted")
	}
	fmt.Printf("   extracted evasion signature: %s\n", sig)

	fmt.Println("3. extend the deception database with the learned resource")
	learned := core.NewDB()
	if !sig.ExtendDB(learned) {
		panic("signature not foldable")
	}

	fmt.Println("4. next encounter: the probe is deceived, the sample deactivates")
	fmt.Printf("   mutations under Scarecrow: %d\n", protectedMutations(sample, learned))
}

// runRaw executes the sample without Scarecrow; plant makes the probed key
// genuinely present (an environment the sample evades). The returned
// events are the sample's process subtree, found by following parent
// links from the launched root.
func runRaw(s *malware.Specimen, plant bool) []trace.Event {
	m := winsim.NewBareMetalSandbox(1)
	if plant {
		if _, err := m.Registry.CreateKey(novelKey); err != nil {
			panic(err)
		}
	}
	sys := winapi.NewSystem(m)
	s.Register(sys)
	m.FS.Touch(s.Image, 64<<10)
	root := sys.Launch(s.Image, s.ID, nil)
	sys.Run(analysis.ObservationWindow)
	subtree := map[int]bool{root.PID: true}
	for _, p := range m.Procs.All() { // creation order: parents first
		if subtree[p.ParentPID] {
			subtree[p.PID] = true
		}
	}
	return m.Tracer.Filter(func(e trace.Event) bool { return subtree[e.PID] })
}

// protectedMutations runs the sample under Scarecrow with db on an
// end-user machine and counts the mutations its process subtree made.
func protectedMutations(s *malware.Specimen, db *core.DB) int {
	lab := &analysis.Lab{
		Profile: winsim.ProfileEndUser,
		Config:  core.RecommendedConfig(string(winsim.ProfileEndUser)),
		DB:      db,
	}
	res := lab.RunSampleSeeded(s, 5)
	if res.Err != nil {
		panic(res.Err)
	}
	return res.Protected.Summary.Mutations()
}
