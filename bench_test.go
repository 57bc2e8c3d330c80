// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the design-choice ablations DESIGN.md calls
// out. Each benchmark regenerates its experiment end to end on the
// simulated cluster and reports the headline result as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints its key numbers.
package scarecrow

import (
	"sync"
	"testing"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/crawler"
	"scarecrow/internal/malware"
	"scarecrow/internal/pafish"
	"scarecrow/internal/weartear"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

var printOnce sync.Once

// printReports emits every table and figure once per benchmark session so
// the bench output file carries the full reproduction alongside timings.
func printReports(b *testing.B) {
	printOnce.Do(func() {
		b.Logf("\n%s", analysis.Table1(analysis.NewLab(42)))
		table2, err := analysis.Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", table2)
		table3, err := analysis.Table3(7)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", table3)
		benign, err := analysis.RunBenign(7)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", benign)
	})
}

// BenchmarkTable1JoeSecurity regenerates Table I: the 13 Joe Security
// samples, run with and without Scarecrow.
func BenchmarkTable1JoeSecurity(b *testing.B) {
	printReports(b)
	var deactivated int
	for i := 0; i < b.N; i++ {
		report := analysis.Table1(analysis.NewLab(42))
		deactivated = report.DeactivatedCount()
	}
	b.ReportMetric(float64(deactivated), "deactivated/13")
}

// BenchmarkFigure4MalGeneCorpus regenerates Figure 4 from the complete
// 1,054-sample corpus (the heaviest benchmark: ~2,100 machine
// executions per iteration).
func BenchmarkFigure4MalGeneCorpus(b *testing.B) {
	corpus := malware.MalGeneCorpus()
	var report analysis.Figure4Report
	for i := 0; i < b.N; i++ {
		report = analysis.Figure4(analysis.NewLab(42), corpus)
	}
	b.ReportMetric(report.DeactivationRate(), "%deactivated")
	b.ReportMetric(report.SpawnLoopRate(), "%spawnloops")
	b.ReportMetric(float64(report.SpawnersUsingIsDebugger), "isdbg-spawners")
	b.ReportMetric(float64(report.Health.VerdictErrors), "run-errors")
	b.ReportMetric(report.Health.Throughput(), "runs/s")
	b.Logf("\n%s", report)
	b.Logf("%s", report.Health)
}

// BenchmarkFigure4Sample100 sweeps a stratified 100-sample slice of the
// corpus — the quick variant of Figure 4.
func BenchmarkFigure4Sample100(b *testing.B) {
	full := malware.MalGeneCorpus()
	var corpus []*malware.Specimen
	for i := 0; i < len(full); i += len(full) / 100 {
		corpus = append(corpus, full[i])
	}
	var report analysis.Figure4Report
	for i := 0; i < b.N; i++ {
		report = analysis.Figure4(analysis.NewLab(42), corpus)
	}
	b.ReportMetric(report.DeactivationRate(), "%deactivated")
	b.ReportMetric(report.Health.Throughput(), "runs/s")
}

// BenchmarkSweepReset measures the Deep Freeze reset itself: acquiring a
// run-ready bare-metal machine by cloning the template snapshot (the lab's
// default) versus building one from scratch. Alongside the standard ns/op
// (the clone cost) it reports fresh_ns/op, reset_ns/op, and speedup_x. It
// writes no file: `go test` leaves no artifacts behind.
func BenchmarkSweepReset(b *testing.B) {
	template := winsim.NewBareMetalSandbox(0).Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		template.Clone(int64(i))
	}
	b.StopTimer()
	resetNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	const freshRuns = 25
	start := time.Now()
	for i := 0; i < freshRuns; i++ {
		winsim.NewBareMetalSandbox(int64(i))
	}
	freshNs := float64(time.Since(start).Nanoseconds()) / freshRuns

	speedup := 0.0
	if resetNs > 0 {
		speedup = freshNs / resetNs
	}
	b.ReportMetric(resetNs, "reset_ns/op")
	b.ReportMetric(freshNs, "fresh_ns/op")
	b.ReportMetric(speedup, "speedup_x")
}

// BenchmarkSweepThroughput sweeps the stratified 100-sample corpus slice
// with the template pool on (default) and off, reporting machine executions
// per second for each — the end-to-end effect of the O(1) reset.
func BenchmarkSweepThroughput(b *testing.B) {
	full := malware.MalGeneCorpus()
	var corpus []*malware.Specimen
	for i := 0; i < len(full); i += len(full) / 100 {
		corpus = append(corpus, full[i])
	}
	for _, mode := range []struct {
		name   string
		noPool bool
	}{
		{"pooled", false},
		{"fresh", true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var report analysis.RunReport
			for i := 0; i < b.N; i++ {
				lab := analysis.NewLab(42)
				lab.DisablePooling = mode.noPool
				_, report = lab.Sweep(corpus)
			}
			b.ReportMetric(report.Throughput(), "runs/s")
		})
	}
}

// BenchmarkTable2Pafish regenerates Table II: the 56-feature Pafish
// battery across the three environments, with and without Scarecrow.
func BenchmarkTable2Pafish(b *testing.B) {
	var report analysis.Table2Report
	var err error
	for i := 0; i < b.N; i++ {
		if report, err = analysis.Table2(1); err != nil {
			b.Fatal(err)
		}
	}
	vbox := report.Cells["VM sandbox"]["VirtualBox"]
	b.ReportMetric(float64(vbox.With), "vm-vbox-with")
	b.ReportMetric(float64(vbox.Without), "vm-vbox-without")
}

// BenchmarkTable3WearAndTear regenerates Table III: artifact extraction,
// decision-tree training, and the classifier flip under the wear-and-tear
// extension.
func BenchmarkTable3WearAndTear(b *testing.B) {
	var report analysis.Table3Report
	var err error
	for i := 0; i < b.N; i++ {
		if report, err = analysis.Table3(7); err != nil {
			b.Fatal(err)
		}
	}
	steered := 0.0
	if report.Steered() {
		steered = 1.0
	}
	b.ReportMetric(steered, "steered")
	b.ReportMetric(report.TreeAccuracy, "tree-acc")
}

// BenchmarkBenignImpact regenerates the §IV-C benign-software evaluation
// over the top-20 CNET programs.
func BenchmarkBenignImpact(b *testing.B) {
	var report analysis.BenignReport
	var err error
	for i := 0; i < b.N; i++ {
		if report, err = analysis.RunBenign(7); err != nil {
			b.Fatal(err)
		}
	}
	unaffected := 0
	for _, row := range report.Rows {
		if row.RawOK && row.ProtectedOK && row.DiffEmpty {
			unaffected++
		}
	}
	b.ReportMetric(float64(unaffected), "unaffected/20")
}

// BenchmarkCrawlPublicSandboxes regenerates the §II-C crawl-and-diff
// (17,540 files / 24 processes / 1,457 registry entries).
func BenchmarkCrawlPublicSandboxes(b *testing.B) {
	var r crawler.Resources
	for i := 0; i < b.N; i++ {
		r = crawler.CrawlPublicSandboxes(1)
	}
	b.ReportMetric(float64(len(r.Files)), "files")
	b.ReportMetric(float64(len(r.Processes)), "procs")
	b.ReportMetric(float64(len(r.RegistryKeys)), "regkeys")
}

// BenchmarkCase2WannaCry regenerates Case II (WannaCry deactivation via
// the DNS sinkhole).
func BenchmarkCase2WannaCry(b *testing.B) {
	var report analysis.CaseStudyReport
	var err error
	for i := 0; i < b.N; i++ {
		if report, err = analysis.RunCaseStudy(malware.WannaCry(), 7); err != nil {
			b.Fatal(err)
		}
	}
	deactivated := 0.0
	if report.Verdict.Deactivated {
		deactivated = 1
	}
	b.ReportMetric(deactivated, "deactivated")
}

// BenchmarkHookOverheadUnhooked and BenchmarkHookOverheadHooked measure
// the real (wall-clock) cost of the interposition machinery itself: one
// registry probe through a clean function versus through the full
// Scarecrow hook chain. This is the §III "negligible overhead" claim and
// the per-process-hook-table ablation.
func BenchmarkHookOverheadUnhooked(b *testing.B) {
	ctx := benchContext(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.RegOpenKeyEx(`HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion`)
	}
}

func BenchmarkHookOverheadHooked(b *testing.B) {
	ctx := benchContext(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.RegOpenKeyEx(`HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion`)
	}
}

// BenchmarkHookOverheadDeceived measures a probe that hits the deception
// database (fabricated answer, no pass-through).
func BenchmarkHookOverheadDeceived(b *testing.B) {
	ctx := benchContext(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.RegOpenKeyEx(`HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`)
	}
}

func benchContext(b *testing.B, protected bool) *winapi.Context {
	m := winsim.NewEndUserMachine(1)
	// Leave the clock unbounded: benchmarks run far more iterations than a
	// one-minute window models.
	sys := winapi.NewSystem(m)
	p := sys.Launch(`C:\bench.exe`, "", nil)
	if protected {
		ctrl, err := core.Deploy(sys, core.NewEngine(core.NewDB(), core.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		if err := ctrl.Watch(p); err != nil {
			b.Fatal(err)
		}
	}
	return sys.Context(p)
}

// BenchmarkAblationResourceCategories quantifies the Pareto claim of
// §II-C: even a single deceptive resource category deactivates a large
// share of the corpus. Each sub-benchmark disables all but one category.
func BenchmarkAblationResourceCategories(b *testing.B) {
	full := malware.MalGeneCorpus()
	var corpus []*malware.Specimen
	for i := 0; i < len(full); i += len(full) / 150 {
		corpus = append(corpus, full[i])
	}
	configs := map[string]core.Config{
		"full":            core.RecommendedConfig("baremetal-sandbox"),
		"no-debugger":     withoutCategories(core.CategoryDebugger),
		"no-registry":     withoutCategories(core.CategoryRegistry),
		"no-vm-resources": withoutCategories(core.CategoryRegistry, core.CategoryFile, core.CategoryLibrary, core.CategoryWindow),
		"debugger-only": withoutCategories(core.CategoryRegistry, core.CategoryFile,
			core.CategoryLibrary, core.CategoryWindow, core.CategoryProcess),
		"no-hardware": noHardwareConfig(),
	}
	for name, cfg := range configs {
		cfg := cfg
		b.Run(name, func(b *testing.B) {
			var report analysis.Figure4Report
			for i := 0; i < b.N; i++ {
				lab := analysis.NewLab(42)
				lab.Config = cfg
				report = analysis.Figure4(lab, corpus)
			}
			b.ReportMetric(report.DeactivationRate(), "%deactivated")
		})
	}
}

func withoutCategories(cats ...core.Category) core.Config {
	cfg := core.RecommendedConfig("baremetal-sandbox")
	cfg.DisabledCategories = cats
	return cfg
}

func noHardwareConfig() core.Config {
	cfg := core.RecommendedConfig("baremetal-sandbox")
	cfg.FakeHardware = false
	cfg.SinkholeNXDomains = false
	return cfg
}

// BenchmarkAblationMitigationKill compares record-only mitigation against
// kill-on-fork on the 474-spawn exemplar (§VI-C).
func BenchmarkAblationMitigationKill(b *testing.B) {
	for _, mode := range []struct {
		name   string
		policy core.MitigationPolicy
	}{
		{"record-only", core.MitigationRecordOnly},
		{"kill-on-fork", core.MitigationKillOnFork},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var spawns int
			for i := 0; i < b.N; i++ {
				lab := analysis.NewLab(42)
				lab.Config.Mitigation = mode.policy
				res := lab.RunSampleSeeded(malware.CorpusSelfSpawner(), lab.Seed^1)
				spawns = res.Protected.Summary.SelfSpawns
			}
			b.ReportMetric(float64(spawns), "spawns")
		})
	}
}

// BenchmarkPafishBattery measures one full 56-feature Pafish run.
func BenchmarkPafishBattery(b *testing.B) {
	m := winsim.NewCuckooSandbox(1, false)
	sys := winapi.NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\pafish.exe`, "", nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pafish.Run(ctx)
	}
}

// BenchmarkWearTearExtraction measures one 44-artifact extraction.
func BenchmarkWearTearExtraction(b *testing.B) {
	m := winsim.NewEndUserMachine(1)
	sys := winapi.NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\probe.exe`, "", nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weartear.Vector(ctx)
	}
}

// BenchmarkMachineConstruction measures the Deep Freeze reset equivalent:
// building a fresh bare-metal machine.
func BenchmarkMachineConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		winsim.NewBareMetalSandbox(int64(i))
	}
}

// BenchmarkSelfSpawnMinute measures one full one-minute self-spawn loop
// under Scarecrow (474 respawn generations).
func BenchmarkSelfSpawnMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := winsim.NewBareMetalSandbox(1)
		sys := winapi.NewSystem(m)
		s := malware.CorpusSelfSpawner()
		s.Register(sys)
		m.FS.Touch(s.Image, 180<<10)
		ctrl, err := core.Deploy(sys, core.NewEngine(core.NewDB(), core.RecommendedConfig(m.Profile)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.LaunchTarget(s.Image, s.ID); err != nil {
			b.Fatal(err)
		}
		sys.Run(time.Minute)
	}
}

// BenchmarkKernelExtension regenerates the §VI-A kernel-gate experiment:
// the raw-syscall corpus samples under user-only and kernel-extended
// deployments.
func BenchmarkKernelExtension(b *testing.B) {
	var report analysis.KernelExtensionReport
	for i := 0; i < b.N; i++ {
		report = analysis.KernelExtension(42)
	}
	b.ReportMetric(float64(report.DeactivatedUserOnly), "user-only")
	b.ReportMetric(float64(report.DeactivatedWithGate), "kernel-gate")
}

// BenchmarkEvasionBaseline regenerates the motivation experiment: the
// share of the corpus that changes behaviour inside stock analysis rigs.
func BenchmarkEvasionBaseline(b *testing.B) {
	full := malware.MalGeneCorpus()
	var slice []*malware.Specimen
	for i := 0; i < len(full); i += len(full) / 150 {
		slice = append(slice, full[i])
	}
	var report analysis.EvasionBaselineReport
	var err error
	for i := 0; i < b.N; i++ {
		if report, err = analysis.EvasionBaseline(slice, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.EvasionRate(), "%evading")
}

// BenchmarkFullStackLadder regenerates the §VI-A deployment-tier ladder
// over the residual corpus.
func BenchmarkFullStackLadder(b *testing.B) {
	var report analysis.FullStackReport
	for i := 0; i < b.N; i++ {
		report = analysis.FullStack(42)
	}
	if len(report.Tiers) == 3 {
		b.ReportMetric(float64(report.Tiers[1].Deactivated), "kernel-tier")
		b.ReportMetric(float64(report.Tiers[2].Deactivated), "hypervisor-tier")
	}
}
