package analysis

import (
	"fmt"
	"strings"
	"time"

	"scarecrow/internal/benign"
	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// BenignRow is one program's outcome in the §IV-C benign-impact
// evaluation.
type BenignRow struct {
	Program      string
	RawOK        bool
	ProtectedOK  bool
	DiffEmpty    bool
	RawMutations int
}

// BenignReport is the full benign-software evaluation.
type BenignReport struct {
	Rows []BenignRow
}

// AllUnaffected reports whether every program installed and operated
// identically with and without Scarecrow.
func (r BenignReport) AllUnaffected() bool {
	for _, row := range r.Rows {
		if !row.RawOK || !row.ProtectedOK || !row.DiffEmpty {
			return false
		}
	}
	return true
}

// String renders the report.
func (r BenignReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %-8s %-12s %-10s %s\n", "program", "raw-ok", "protected-ok", "identical", "mutations")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-24s %-8v %-12v %-10v %d\n",
			row.Program, row.RawOK, row.ProtectedOK, row.DiffEmpty, row.RawMutations)
	}
	fmt.Fprintf(&sb, "all unaffected: %v\n", r.AllUnaffected())
	return sb.String()
}

// RunBenign evaluates the top-20 CNET programs with and without Scarecrow
// on end-user machines.
func RunBenign(seed int64) (BenignReport, error) {
	report := BenignReport{}
	for _, p := range benign.Top20() {
		rawOK, rawSum, err := runBenignProgram(p, seed, false)
		if err != nil {
			return BenignReport{}, err
		}
		protOK, protSum, err := runBenignProgram(p, seed, true)
		if err != nil {
			return BenignReport{}, err
		}
		suppressed := trace.Compare(rawSum, protSum)
		extra := trace.Compare(protSum, rawSum)
		report.Rows = append(report.Rows, BenignRow{
			Program:      p.Name,
			RawOK:        rawOK,
			ProtectedOK:  protOK,
			DiffEmpty:    suppressed.Empty() && extra.Empty(),
			RawMutations: rawSum.Mutations(),
		})
	}
	return report, nil
}

// runBenignProgram installs and operates one program on a fresh end-user
// machine, under the stock Scarecrow deployment when protected.
func runBenignProgram(p benign.Program, seed int64, protected bool) (bool, trace.Summary, error) {
	m := winsim.NewEndUserMachine(seed)
	benign.ProvisionDomains(m, []benign.Program{p})
	ok := false
	body := func(ctx *winapi.Context) int {
		ok = p.Run(ctx)
		return winapi.ExitOK
	}
	var engine *core.Engine
	if protected {
		engine = core.NewEngine(core.NewDB(), core.RecommendedConfig(m.Profile))
	}
	ex, err := execute(winapi.NewSystem(m), program{image: p.InstallerImage, name: p.Name, body: body, size: 40 << 20}, engine, nil, nil)
	return ok, ex.Summary, err
}

// CaseStudyReport is the Case I / Case II outcome for one case-study
// sample run on end-user machines.
type CaseStudyReport struct {
	Sample   string
	Raw      Execution
	Verdict  Verdict
	Triggers []core.TriggerReport
}

// String renders the case study.
func (r CaseStudyReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "case %s: deactivated=%v\n", r.Sample, r.Verdict.Deactivated)
	fmt.Fprintf(&sb, "  without scarecrow: %d mutations\n", r.Verdict.RawMutations)
	fmt.Fprintf(&sb, "  with scarecrow:    %d mutations\n", r.Verdict.ProtectedMutations)
	if len(r.Triggers) > 0 {
		fmt.Fprintf(&sb, "  first trigger: %s\n", r.Triggers[0])
	}
	return sb.String()
}

// RunCaseStudy executes a case-study specimen on end-user machines (the
// deployment target of Section V) with and without Scarecrow.
func RunCaseStudy(s *malware.Specimen, seed int64) (CaseStudyReport, error) {
	lab := &Lab{
		Profile: winsim.ProfileEndUser,
		Seed:    seed,
		Config:  core.RecommendedConfig(string(winsim.ProfileEndUser)),
	}
	res := lab.RunSampleSeeded(s, seed^1)
	if res.Err != nil {
		return CaseStudyReport{}, res.Err
	}
	return CaseStudyReport{
		Sample:   s.ID + " (" + s.Family + ")",
		Raw:      res.Raw,
		Verdict:  res.Verdict,
		Triggers: res.Protected.Triggers,
	}, nil
}

// HookOverhead measures the virtual-time cost of one hooked versus one
// unhooked API call — the §III "negligible performance overhead" claim,
// quantified in the modeled cost domain.
func HookOverhead() (unhooked, hooked time.Duration, err error) {
	m := winsim.NewEndUserMachine(1)
	sys := winapi.NewSystem(m)
	p := sys.Launch(`C:\bench.exe`, "", nil)
	ctx := sys.Context(p)
	start := m.Clock.Now()
	_ = ctx.RegOpenKeyEx(`HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion`)
	unhooked = m.Clock.Now() - start

	ctrl, err := core.Deploy(sys, core.NewEngine(core.NewDB(), core.DefaultConfig()))
	if err != nil {
		return 0, 0, fmt.Errorf("analysis: deploying scarecrow: %w", err)
	}
	if err := ctrl.Watch(p); err != nil {
		return 0, 0, fmt.Errorf("analysis: hooking bench process: %w", err)
	}
	start = m.Clock.Now()
	_ = ctx.RegOpenKeyEx(`HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion`)
	hooked = m.Clock.Now() - start
	return unhooked, hooked, nil
}
