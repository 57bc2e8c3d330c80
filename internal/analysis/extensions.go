package analysis

import (
	"fmt"
	"strings"

	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// KernelExtensionReport compares user-only hooking against the §VI-A
// kernel extension on the corpus samples that bypass user-mode hooks via
// raw syscalls.
type KernelExtensionReport struct {
	Samples             int
	DeactivatedUserOnly int
	DeactivatedWithGate int
	StillFailing        []string // sample IDs surviving even the kernel gate
}

// String renders the report.
func (r KernelExtensionReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "direct-syscall samples: %d\n", r.Samples)
	fmt.Fprintf(&sb, "deactivated, user-level hooks only: %d\n", r.DeactivatedUserOnly)
	fmt.Fprintf(&sb, "deactivated, with the kernel gate:  %d\n", r.DeactivatedWithGate)
	if len(r.StillFailing) > 0 {
		fmt.Fprintf(&sb, "still failing: %s\n", strings.Join(r.StillFailing, ", "))
	}
	return sb.String()
}

// KernelExtension runs every direct-syscall sample of the corpus twice:
// under the stock user-level deployment (where the paper's implementation
// fails) and with the kernel syscall gate enabled (the §VI-A future work,
// implemented).
func KernelExtension(seed int64) KernelExtensionReport {
	var directSamples []*malware.Specimen
	for _, s := range malware.MalGeneCorpus() {
		if strings.Contains(s.Notes, "raw-syscall") {
			directSamples = append(directSamples, s)
		}
	}
	report := KernelExtensionReport{Samples: len(directSamples)}

	user, _ := NewLab(seed).Sweep(directSamples)
	for _, res := range user {
		if res.Verdict.Deactivated {
			report.DeactivatedUserOnly++
		}
	}

	kernel := NewLab(seed)
	kernel.Config.KernelHooks = true
	gated, _ := kernel.Sweep(directSamples)
	for _, res := range gated {
		if res.Verdict.Deactivated {
			report.DeactivatedWithGate++
		} else {
			report.StillFailing = append(report.StillFailing, res.Specimen.ID)
		}
	}
	return report
}

// EvasionBaselineReport quantifies the motivation behind the paper: how
// much of the evasive corpus goes quiet inside analysis environments (the
// >80%-of-malware-evades statistic the introduction cites). Samples are
// run raw — no Scarecrow anywhere — on a clean reference machine and on
// the analysis rigs the MalGene dataset was confirmed against: a
// freshly-reverted single-core emulator-like guest, a debugger rig, and a
// Sandboxie rig.
type EvasionBaselineReport struct {
	Samples int
	// EvadedSandbox counts samples whose mutating behaviour on the clean
	// reference machine disappears inside at least one analysis rig.
	EvadedSandbox int
	// PerRig counts evasions per rig name.
	PerRig map[string]int
}

// EvasionRate returns the percentage of samples evading the sandbox.
func (r EvasionBaselineReport) EvasionRate() float64 {
	if r.Samples == 0 {
		return 0
	}
	return 100 * float64(r.EvadedSandbox) / float64(r.Samples)
}

// String renders the report.
func (r EvasionBaselineReport) String() string {
	return fmt.Sprintf("evasion baseline: %d/%d samples (%.1f%%) change behaviour inside at least one stock analysis rig",
		r.EvadedSandbox, r.Samples, r.EvasionRate())
}

// EvasionBaseline runs corpus samples raw on the clean reference and on
// each analysis rig, counting how many evade at least one rig. This is the
// problem statement, not the defense.
func EvasionBaseline(samples []*malware.Specimen, seed int64) (EvasionBaselineReport, error) {
	report := EvasionBaselineReport{Samples: len(samples), PerRig: make(map[string]int)}
	rigs := analysisRigs()
	for i, s := range samples {
		ref, err := runOnRig(nil, s, seed+int64(i), nil)
		if err != nil {
			return EvasionBaselineReport{}, err
		}
		evaded := false
		for _, rig := range rigs {
			inRig, err := runOnRig(&rig, s, seed+int64(i), nil)
			if err != nil {
				return EvasionBaselineReport{}, err
			}
			if behaviourDiverges(ref, inRig) {
				report.PerRig[rig.name]++
				evaded = true
			}
		}
		if evaded {
			report.EvadedSandbox++
		}
	}
	return report, nil
}

// behaviourDiverges implements the MalGene confirmation criterion: the
// sample did something on the reference machine and its runtime behaviour
// in the rig differs — activities suppressed, or evasive reactions (such
// as the debugger-escape respawn) appearing that the reference never
// showed.
func behaviourDiverges(ref, inRig trace.Summary) bool {
	if ref.Mutations() == 0 {
		return false
	}
	return !trace.Compare(ref, inRig).Empty() || inRig.SelfSpawns != ref.SelfSpawns
}

// rig is one analysis environment of the baseline suite: a machine
// mutator applied between launch and execution.
type rig struct {
	name    string
	prepare func(m *winsim.Machine, root *winsim.Process)
}

// analysisRigs returns the environments the baseline compares against.
func analysisRigs() []rig {
	return []rig{
		{"emulator-guest", func(m *winsim.Machine, root *winsim.Process) {
			// A freshly reverted single-core emulator-like guest running
			// samples from the canonical path (approximating the Anubis
			// environment the MalGene corpus came from).
			m.Clock.SetDeadline(0)
			m.HW.NumCores = 1
			m.HW.RAMBytes = 512 << 20
			root.PEB.NumberOfProcessors = 1
		}},
		{"debugger-rig", func(m *winsim.Machine, root *winsim.Process) {
			m.DebuggerAttachedPIDs[root.PID] = true
			root.PEB.BeingDebugged = true
			m.KernelDebuggerPresent = true
			dbg := m.Procs.Create(`C:	ools\ollydbg.exe`, "ollydbg.exe", 4, 0)
			dbg.State = winsim.ProcessRunning
			m.Windows.Add(winsim.Window{Class: "OLLYDBG", Title: "OllyDbg", PID: dbg.PID})
		}},
		{"sandboxie-rig", func(m *winsim.Machine, root *winsim.Process) {
			root.LoadModule("SbieDll.dll")
		}},
	}
}

// runOnRig runs a sample raw on a fresh analysis rig: a freshly reverted
// Cuckoo guest with the rig's mutator applied after launch, or the clean
// bare-metal reference when r is nil. events, when non-nil, receives the
// sample subtree's raw event stream (trace alignment needs events rather
// than summaries).
func runOnRig(r *rig, s *malware.Specimen, seed int64, events *[]trace.Event) (trace.Summary, error) {
	var m *winsim.Machine
	var prepare func(*winsim.Machine, *winsim.Process)
	if r == nil {
		m = winsim.NewCleanBareMetal(seed)
	} else {
		m = winsim.NewCuckooSandbox(seed, false)
		// Freshly reverted guest: minutes of uptime.
		m.Clock = winsim.NewClock(3*60*1e9, 2.6)
		prepare = r.prepare
	}
	ex, err := execute(winapi.NewSystem(m), specimenProgram(s), nil, prepare, events)
	return ex.Summary, err
}

// TierOutcome is one deployment tier's result over the residual corpus.
type TierOutcome struct {
	Tier        string
	Deactivated int
}

// FullStackReport evaluates the §VI-A ladder over the 110 corpus samples
// the paper's user-level deployment cannot deactivate: how many fall to
// the kernel syscall gate, how many more to the deception hypervisor, and
// what remains (direct PEB reads, and the indeterminate Selfdel family).
type FullStackReport struct {
	Samples int
	Tiers   []TierOutcome
}

// String renders the ladder.
func (r FullStackReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "residual corpus (undeceived by the paper's deployment): %d samples\n", r.Samples)
	for _, tier := range r.Tiers {
		fmt.Fprintf(&sb, "  %-28s deactivates %3d\n", tier.Tier, tier.Deactivated)
	}
	return sb.String()
}

// FullStack runs the residual samples through the three deployment tiers.
func FullStack(seed int64) FullStackReport {
	// The residual set: everything the stock lab does not deactivate.
	stock, _ := NewLab(seed).Sweep(malware.MalGeneCorpus())
	var residual []*malware.Specimen
	for _, res := range stock {
		if !res.Verdict.Deactivated {
			residual = append(residual, res.Specimen)
		}
	}
	report := FullStackReport{Samples: len(residual)}

	run := func(tier string, mutate func(*Lab)) {
		lab := NewLab(seed)
		mutate(lab)
		results, _ := lab.Sweep(residual)
		n := 0
		for _, res := range results {
			if res.Verdict.Deactivated {
				n++
			}
		}
		report.Tiers = append(report.Tiers, TierOutcome{Tier: tier, Deactivated: n})
	}
	run("user-level hooks (paper)", func(*Lab) {})
	run("+ kernel syscall gate", func(l *Lab) { l.Config.KernelHooks = true })
	run("+ deception hypervisor", func(l *Lab) {
		l.Config.KernelHooks = true
		l.Config.HypervisorDeception = true
	})
	return report
}
