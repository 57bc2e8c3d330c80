package analysis

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// TestTableI reproduces Table I: 12 of the 13 Joe Security samples are
// deactivated; only the PEB-reading cbdda64 survives; and each sample's
// first trigger matches the paper's trigger column.
func TestTableI(t *testing.T) {
	report := Table1(NewLab(42))
	if len(report.Rows) != 13 {
		t.Fatalf("rows = %d", len(report.Rows))
	}
	if got := report.DeactivatedCount(); got != 12 {
		t.Errorf("deactivated = %d, want 12", got)
	}
	wantTriggers := map[string]string{
		"9fac72a": "GlobalMemoryStatusEx()",
		"d80e956": "GetModuleHandle()",
		"0af4ef5": "Hook detection",
		"3616a11": "IsDebuggerPresent()",
		"f504ef6": "IsDebuggerPresent()",
		"cbdda64": "N/A",
		"9437eab": "NtQueryValueKey()",
		"40d19fb": "IsDebuggerPresent()",
		"ad0d7d0": "GetTickCount()",
		"06a4059": "NtQuerySystemInformation()",
		"f1a1288": "IsDebuggerPresent()",
		"61f847b": "IsDebuggerPresent()",
		"564ac87": "The name of malware",
	}
	for _, row := range report.Rows {
		want, ok := wantTriggers[row.SampleID]
		if !ok {
			t.Errorf("unexpected sample %s", row.SampleID)
			continue
		}
		if row.Trigger != want {
			t.Errorf("%s trigger = %q, want %q", row.SampleID, row.Trigger, want)
		}
		if (row.SampleID == "cbdda64") == row.Deactivated {
			t.Errorf("%s deactivated = %v", row.SampleID, row.Deactivated)
		}
	}
	if s := report.String(); !strings.Contains(s, "deactivated: 12/13") {
		t.Errorf("report rendering: %q", s)
	}
}

// TestTableIBehaviours spot-checks the behaviour columns of Table I.
func TestTableIBehaviours(t *testing.T) {
	report := Table1(NewLab(42))
	byID := map[string]Table1Row{}
	for _, row := range report.Rows {
		byID[row.SampleID] = row
	}
	// 61f847b encrypts file systems without Scarecrow, sleeps with it.
	if row := byID["61f847b"]; !strings.Contains(row.WithoutScarecrow, "file delete") {
		t.Errorf("61f847b raw behaviour = %q", row.WithoutScarecrow)
	}
	if row := byID["61f847b"]; row.WithScarecrow != "no durable activity" {
		t.Errorf("61f847b protected behaviour = %q", row.WithScarecrow)
	}
	// d80e956 creates svchost.exe and injects without Scarecrow.
	if row := byID["d80e956"]; !strings.Contains(row.WithoutScarecrow, "svchost.exe") ||
		!strings.Contains(row.WithoutScarecrow, "injection") {
		t.Errorf("d80e956 raw behaviour = %q", row.WithoutScarecrow)
	}
	// 3616a11 spawns itself under Scarecrow.
	if row := byID["3616a11"]; row.WithScarecrow != "self-spawn loop" {
		t.Errorf("3616a11 protected behaviour = %q", row.WithScarecrow)
	}
	// cbdda64 behaves identically in both runs.
	if row := byID["cbdda64"]; row.WithoutScarecrow != row.WithScarecrow {
		t.Errorf("cbdda64 behaviours differ: %q vs %q", row.WithoutScarecrow, row.WithScarecrow)
	}
}

// TestFigure4FullCorpus reproduces every aggregate of §IV-C and Figure 4
// from the complete 1,054-sample corpus. This is the heaviest test in the
// repository (~2,100 machine executions); -short skips it.
func TestFigure4FullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run skipped in -short mode")
	}
	report := Figure4(NewLab(42), malware.MalGeneCorpus())

	if report.Total != 1054 {
		t.Fatalf("total = %d, want 1054", report.Total)
	}
	if report.Deactivated != 944 {
		t.Errorf("deactivated = %d, want 944", report.Deactivated)
	}
	if rate := report.DeactivationRate(); rate < 89.55 || rate > 89.57 {
		t.Errorf("deactivation rate = %.2f%%, want 89.56%%", rate)
	}
	if report.SpawnLoopSamples != 823 {
		t.Errorf("spawn-loop samples = %d, want 823", report.SpawnLoopSamples)
	}
	if rate := report.SpawnLoopRate(); rate < 78.07 || rate > 78.09 {
		t.Errorf("spawn-loop rate = %.2f%%, want 78.08%%", rate)
	}
	if report.SpawnersUsingIsDebugger != 815 {
		t.Errorf("IsDebuggerPresent spawners = %d, want 815", report.SpawnersUsingIsDebugger)
	}

	symmi, ok := report.Family("Symmi")
	if !ok {
		t.Fatal("Symmi missing")
	}
	if symmi.Total != 484 || symmi.Deactivated != 478 || symmi.SpawnLoops != 473 ||
		symmi.CreatedProcesses != 26 || symmi.ModifiedFilesReg != 449 {
		t.Errorf("Symmi = %+v, want 484/478/473/26/449", symmi)
	}
	selfdel, ok := report.Family("Selfdel")
	if !ok {
		t.Fatal("Selfdel missing")
	}
	if selfdel.Total != 30 || selfdel.Deactivated > 5 {
		t.Errorf("Selfdel = %+v, want mostly indeterminate", selfdel)
	}
	if len(report.Families) != 61 {
		t.Errorf("families = %d, want 61", len(report.Families))
	}
	top := report.TopFamilies(10)
	if top[0].Family != "Symmi" {
		t.Errorf("top family = %s", top[0].Family)
	}
	if s := report.String(); !strings.Contains(s, "89.56%") {
		t.Errorf("rendering: %s", s)
	}
}

// TestFigure4Subset keeps a fast corpus check in the default test run: the
// first 60 samples are all Symmi debugger-spawners and must all deactivate
// via the spawn loop.
func TestFigure4Subset(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:60]
	report := Figure4(NewLab(42), corpus)
	if report.Total != 60 || report.Deactivated != 60 {
		t.Fatalf("subset: %d/%d deactivated", report.Deactivated, report.Total)
	}
	if report.SpawnLoopSamples != 60 || report.SpawnersUsingIsDebugger != 60 {
		t.Errorf("subset spawners: loops=%d isdbg=%d", report.SpawnLoopSamples, report.SpawnersUsingIsDebugger)
	}
}

func TestBenignEvaluation(t *testing.T) {
	report, err := RunBenign(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 20 {
		t.Fatalf("rows = %d", len(report.Rows))
	}
	if !report.AllUnaffected() {
		t.Errorf("benign software affected:\n%s", report)
	}
	for _, row := range report.Rows {
		if row.RawMutations == 0 {
			t.Errorf("%s performed no installs?", row.Program)
		}
	}
}

func TestCaseStudies(t *testing.T) {
	wc, err := RunCaseStudy(malware.WannaCry(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !wc.Verdict.Deactivated {
		t.Error("WannaCry not deactivated")
	}
	if wc.Verdict.RawMutations == 0 {
		t.Error("WannaCry inert without Scarecrow")
	}
	if len(wc.Triggers) == 0 || wc.Triggers[0].API != "DnsQuery" {
		t.Errorf("WannaCry trigger = %v", wc.Triggers)
	}

	lk, err := RunCaseStudy(malware.Locky(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !lk.Verdict.Deactivated {
		t.Error("Locky not deactivated")
	}

	// Kasidet self-deactivates on this end-user machine even without
	// Scarecrow (the VMware vmnet MAC), so its raw run shows nothing to
	// suppress; run it through the bare-metal lab instead.
	res := NewLab(7).RunSampleSeeded(malware.Kasidet(), 7^1)
	if !res.Verdict.Deactivated {
		t.Error("Kasidet not deactivated on bare metal")
	}
	if res.Verdict.RawMutations == 0 {
		t.Error("Kasidet inert without Scarecrow on bare metal")
	}
}

func TestHookOverheadShape(t *testing.T) {
	unhooked, hooked, err := HookOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if unhooked <= 0 || hooked <= 0 {
		t.Fatalf("costs: %v / %v", unhooked, hooked)
	}
	if hooked < unhooked {
		t.Errorf("hooked call cheaper than unhooked: %v < %v", hooked, unhooked)
	}
	// "Negligible overhead": interposition adds no modeled syscall cost.
	if hooked > 3*unhooked {
		t.Errorf("hook overhead out of band: %v vs %v", hooked, unhooked)
	}
}

func TestMitigationAlertsSurface(t *testing.T) {
	lab := NewLab(42)
	spawner := malware.CorpusSelfSpawner()
	res := lab.RunSampleSeeded(spawner, lab.Seed^1)
	if len(res.Protected.Alerts) == 0 {
		t.Error("no mitigation alert for the 474-spawn exemplar")
	}
	if res.Protected.Summary.SelfSpawns != 474 {
		t.Errorf("exemplar spawns = %d, want 474", res.Protected.Summary.SelfSpawns)
	}
}

// TestProfileIsolationDefeatsDetector is the §VI-B counter-evolution
// experiment: conflicting-vendor probing unmasks a stock deployment, while
// profile isolation keeps the deception consistent and deactivates the
// detector.
func TestProfileIsolationDefeatsDetector(t *testing.T) {
	detector := malware.ScarecrowAware()

	stock := NewLab(42)
	res := stock.RunSampleSeeded(detector, stock.Seed^1)
	if res.Verdict.Deactivated {
		t.Error("stock Scarecrow should be unmasked by conflicting vendors")
	}
	if res.Protected.Summary.Mutations() == 0 {
		t.Error("unmasked detector should have attacked")
	}

	isolated := NewLab(42)
	isolated.Config.ProfileIsolation = true
	res = isolated.RunSampleSeeded(detector, isolated.Seed^1)
	if !res.Verdict.Deactivated {
		t.Error("profile isolation should deactivate the detector")
	}
	if res.Protected.Summary.Mutations() != 0 {
		t.Error("detector attacked despite isolation")
	}
}

// TestTable2RunnerMatchesPaper re-checks a few signature cells through the
// analysis-level runner (the pafish package holds the exhaustive cell
// assertions).
func TestTable2RunnerMatchesPaper(t *testing.T) {
	r, err := Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Environments) != 3 {
		t.Fatalf("environments = %v", r.Environments)
	}
	vm := r.Cells["VM sandbox"]
	if vm["VirtualBox"].Without != 16 || vm["VirtualBox"].With != 14 {
		t.Errorf("VM VirtualBox = %+v", vm["VirtualBox"])
	}
	if vm["CPU information"].Without != 3 || vm["CPU information"].With != 0 {
		t.Errorf("VM CPU = %+v", vm["CPU information"])
	}
	eu := r.Cells["End-user machine"]
	if eu["VMware"].Without != 1 || eu["VMware"].With != 4 {
		t.Errorf("EU VMware = %+v", eu["VMware"])
	}
	if !strings.Contains(r.String(), "VirtualBox") {
		t.Error("rendering")
	}
}

// TestTable3RunnerSteersClassifier verifies the end-to-end Table III
// outcome through the analysis-level runner.
func TestTable3RunnerSteersClassifier(t *testing.T) {
	r, err := Table3(7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Steered() {
		t.Fatalf("classifier not steered: raw=%v protected=%v", r.RawLabel, r.ProtectedLabel)
	}
	if len(r.Rows) != 16 {
		t.Errorf("faked artifacts = %d, want 16", len(r.Rows))
	}
	if r.TreeAccuracy < 0.95 {
		t.Errorf("tree accuracy = %.2f", r.TreeAccuracy)
	}
	for _, row := range r.Rows {
		if row.Artifact == "dnscacheEntries" && row.FakedValue != 4 {
			t.Errorf("dnscacheEntries faked to %.0f", row.FakedValue)
		}
		if row.Artifact == "regSize" && row.FakedValue != 53 {
			t.Errorf("regSize faked to %.0f MB", row.FakedValue)
		}
	}
}

// TestKernelExtensionClosesBypass verifies the implemented §VI-A future
// work: samples probing via raw syscalls defeat the paper's user-level
// deployment but not the kernel syscall gate.
func TestKernelExtensionClosesBypass(t *testing.T) {
	report := KernelExtension(42)
	if report.Samples < 20 {
		t.Fatalf("direct-syscall samples = %d", report.Samples)
	}
	if report.DeactivatedUserOnly != 0 {
		t.Errorf("user-only deployment deactivated %d raw-syscall samples, want 0", report.DeactivatedUserOnly)
	}
	if report.DeactivatedWithGate != report.Samples {
		t.Errorf("kernel gate deactivated %d/%d: %v",
			report.DeactivatedWithGate, report.Samples, report.StillFailing)
	}
}

// TestEvasionBaseline quantifies the motivation: most of the evasive
// corpus hides inside a stock sandbox without any Scarecrow involved.
func TestEvasionBaseline(t *testing.T) {
	full := malware.MalGeneCorpus()
	var slice []*malware.Specimen
	for i := 0; i < len(full); i += len(full) / 150 {
		slice = append(slice, full[i])
	}
	report, err := EvasionBaseline(slice, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rate := report.EvasionRate(); rate < 75 {
		t.Errorf("sandbox evasion rate = %.1f%%, want the large majority (paper cites >80%% of malware evading)", rate)
	}
	// Exact per-rig counts at seed 42 pin the rig runner: a change to how
	// a rig machine is built or prepared shows up here.
	wantPerRig := map[string]int{"debugger-rig": 127, "emulator-guest": 52, "sandboxie-rig": 78}
	if report.Samples != 151 || report.EvadedSandbox != 133 || !reflect.DeepEqual(report.PerRig, wantPerRig) {
		t.Errorf("baseline = %d/%d evaded, per rig %v; want 133/151, per rig %v",
			report.EvadedSandbox, report.Samples, report.PerRig, wantPerRig)
	}
}

// TestToolKillerStoppedByProtectedDecoys exercises §II-B(b)'s process
// protection: the tool-killing sample acts freely on a clean host but
// stands down when Scarecrow's decoy forensic tools refuse to die.
func TestToolKillerStoppedByProtectedDecoys(t *testing.T) {
	res := NewLab(42).RunSampleSeeded(malware.ToolKiller(), 42^1)
	if res.Verdict.RawMutations == 0 {
		t.Fatal("tool killer inert without Scarecrow")
	}
	if !res.Verdict.Deactivated {
		t.Error("tool killer not deactivated by protected decoys")
	}
	if res.Verdict.ProtectedMutations != 0 {
		t.Error("tool killer acted despite unkillable decoys")
	}
}

// TestToolKillerVerdictDeterministic: the Toolhelp snapshot hook plants
// the decoy processes in one fixed order, so the tool killer — which
// walks that process list — yields byte-identical verdicts run after run
// at one seed, as the verdict cache's replay guarantee requires.
func TestToolKillerVerdictDeterministic(t *testing.T) {
	lab := NewLab(42)
	var want []byte
	for i := 0; i < 20; i++ {
		got, err := lab.RunSampleSeeded(malware.ToolKiller(), 1).MarshalVerdict()
		if err != nil {
			t.Fatalf("run %d: MarshalVerdict: %v", i, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d verdict differs from run 0:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestSweepParallelConsistency: the parallel cluster produces exactly
// the results a one-worker cluster does (each run owns its machine, so
// parallelism must not perturb verdicts).
func TestSweepParallelConsistency(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:40]
	serial := NewLab(42)
	serial.Workers = 1
	parallel := NewLab(42)
	parallel.Workers = 8
	a, _ := serial.Sweep(corpus)
	b, _ := parallel.Sweep(corpus)
	for i := range a {
		va, vb := a[i].Verdict, b[i].Verdict
		if va.Deactivated != vb.Deactivated || va.SpawnLoop != vb.SpawnLoop ||
			va.RawMutations != vb.RawMutations || va.ProtectedMutations != vb.ProtectedMutations {
			t.Errorf("sample %s: serial %+v vs parallel %+v", a[i].Specimen.ID, va, vb)
		}
	}
}

// TestLabDeterminism: identical labs produce identical reports.
func TestLabDeterminism(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:30]
	r1 := Figure4(NewLab(42), corpus)
	r2 := Figure4(NewLab(42), corpus)
	if r1.Deactivated != r2.Deactivated || r1.SpawnLoopSamples != r2.SpawnLoopSamples {
		t.Errorf("reports differ: %+v vs %+v", r1, r2)
	}
	// A different seed still yields the same verdicts (mechanisms, not
	// randomness, drive outcomes).
	r3 := Figure4(NewLab(977), corpus)
	if r1.Deactivated != r3.Deactivated {
		t.Errorf("verdicts seed-sensitive: %d vs %d", r1.Deactivated, r3.Deactivated)
	}
}

// TestVerdictJudgeDirectly covers the verdict matrix on synthetic
// executions.
func TestVerdictJudgeDirectly(t *testing.T) {
	mut := func(files int, spawns int, isdbg int) Execution {
		sum := trace.Summary{
			ProcessesCreated: map[string]int{},
			FilesWritten:     map[string]int{},
			FilesDeleted:     map[string]int{},
			RegistryModified: map[string]int{},
			APICalls:         map[string]int{"IsDebuggerPresent": isdbg},
			DNSQueries:       map[string]int{},
			SelfSpawns:       spawns,
		}
		for i := 0; i < files; i++ {
			sum.FilesWritten["c:\\f"+strconv.Itoa(i)] = 1
		}
		return Execution{Summary: sum}
	}
	tests := []struct {
		name        string
		raw, prot   Execution
		deactivated bool
		spawnLoop   bool
	}{
		{"suppressed payload", mut(3, 0, 0), mut(0, 0, 0), true, false},
		{"spawn loop", mut(2, 0, 0), mut(2, 400, 400), true, true},
		{"identical behaviour", mut(2, 0, 0), mut(2, 0, 0), false, false},
		{"inert both", mut(0, 0, 0), mut(0, 0, 0), false, false},
		{"below spawn threshold", mut(1, 0, 0), mut(1, 5, 5), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := Judge(tt.raw, tt.prot)
			if v.Deactivated != tt.deactivated || v.SpawnLoop != tt.spawnLoop {
				t.Errorf("verdict = %+v", v)
			}
		})
	}
}

// TestReportRenderings covers every report's String form on small inputs.
func TestReportRenderings(t *testing.T) {
	fig := Figure4(NewLab(42), malware.MalGeneCorpus()[:12])
	if s := fig.String(); !strings.Contains(s, "Figure 4") || !strings.Contains(s, "Symmi") {
		t.Errorf("figure rendering: %q", s)
	}
	if fig.DeactivationRate() <= 0 || fig.SpawnLoopRate() <= 0 {
		t.Error("rates")
	}
	if _, ok := fig.Family("Symmi"); !ok {
		t.Error("family lookup")
	}
	if _, ok := fig.Family("Nope"); ok {
		t.Error("bogus family found")
	}
	if top := fig.TopFamilies(100); len(top) == 0 {
		t.Error("top families")
	}

	benign, err := RunBenign(7)
	if err != nil {
		t.Fatal(err)
	}
	if s := benign.String(); !strings.Contains(s, "all unaffected") {
		t.Errorf("benign rendering: %q", s)
	}
	cs, err := RunCaseStudy(malware.Locky(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if s := cs.String(); !strings.Contains(s, "deactivated=true") {
		t.Errorf("case rendering: %q", s)
	}
	ke := KernelExtension(42)
	if s := ke.String(); !strings.Contains(s, "kernel gate") {
		t.Errorf("kernel rendering: %q", s)
	}
	eb := EvasionBaselineReport{Samples: 10, EvadedSandbox: 8}
	if s := eb.String(); !strings.Contains(s, "80.0%") {
		t.Errorf("baseline rendering: %q", s)
	}
	cr := CrawlReport{Files: 1, Processes: 2, RegistryKeys: 3}
	if s := cr.String(); !strings.Contains(s, "unique files") {
		t.Errorf("crawl rendering: %q", s)
	}
}

// TestFullStackLadder quantifies the §VI-A ladder over the residual 110
// samples: the kernel gate recovers the raw-syscall probes, the deception
// hypervisor recovers the timing probes, and direct PEB reads plus the
// indeterminate Selfdel family remain.
func TestFullStackLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full corpus to find the residual set")
	}
	r := FullStack(42)
	if r.Samples != 110 {
		t.Fatalf("residual = %d, want 110", r.Samples)
	}
	if len(r.Tiers) != 3 {
		t.Fatalf("tiers = %d", len(r.Tiers))
	}
	if r.Tiers[0].Deactivated != 0 {
		t.Errorf("user tier recovered %d", r.Tiers[0].Deactivated)
	}
	if r.Tiers[1].Deactivated != 24 {
		t.Errorf("kernel tier recovered %d, want the 24 raw-syscall samples", r.Tiers[1].Deactivated)
	}
	if r.Tiers[2].Deactivated != 52 {
		t.Errorf("hypervisor tier recovered %d, want 52 (24 syscall + 28 timing)", r.Tiers[2].Deactivated)
	}
	if !strings.Contains(r.String(), "residual corpus") {
		t.Error("rendering")
	}
}

// TestSignatureSurvey runs the §II-C learning pipeline over a stratified
// corpus slice: most samples yield an evasion signature, API probes
// dominate (IsDebuggerPresent, as §IV-C reports), and resource-type
// signatures fold into the database.
func TestSignatureSurvey(t *testing.T) {
	full := malware.MalGeneCorpus()
	var slice []*malware.Specimen
	for i := 0; i < len(full); i += len(full) / 100 {
		slice = append(slice, full[i])
	}
	survey, err := SurveySignatures(slice, 42)
	if err != nil {
		t.Fatal(err)
	}
	if survey.Extracted < survey.Samples/2 {
		t.Errorf("extracted %d/%d signatures", survey.Extracted, survey.Samples)
	}
	if survey.ByAPI["IsDebuggerPresent"] == 0 {
		t.Error("IsDebuggerPresent absent from API-probe signatures")
	}
	if survey.ByKind["APICall"] == 0 {
		t.Errorf("kinds = %v", survey.ByKind)
	}
	if s := survey.String(); !strings.Contains(s, "signature survey") {
		t.Error("rendering")
	}
	// Exact histograms at seed 42 pin the rig runner's event streams.
	wantKind := map[string]int{"APICall": 90, "DNSQuery": 2, "FileQuery": 5, "WindowQuery": 1}
	wantAPI := map[string]int{"GetModuleHandle": 4, "GlobalMemoryStatusEx": 5, "IsDebuggerPresent": 81}
	if survey.Samples != 106 || survey.Extracted != 98 || survey.Learned != 5 {
		t.Errorf("survey = %d samples, %d extracted, %d learned; want 106, 98, 5",
			survey.Samples, survey.Extracted, survey.Learned)
	}
	if !reflect.DeepEqual(survey.ByKind, wantKind) || !reflect.DeepEqual(survey.ByAPI, wantAPI) {
		t.Errorf("survey kinds %v, APIs %v; want %v, %v", survey.ByKind, survey.ByAPI, wantKind, wantAPI)
	}
}

// TestFigure4DeploymentSiteInvariance re-runs the full corpus with the
// cluster machines swapped for end-user machines (Scarecrow's actual
// deployment target): the aggregates must hold — deactivation is driven
// by the deception, not by the bare-metal lab.
func TestFigure4DeploymentSiteInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run skipped in -short mode")
	}
	lab := NewLab(42)
	lab.Profile = winsim.ProfileEndUser
	lab.Config = core.RecommendedConfig(string(winsim.ProfileEndUser))
	report := Figure4(lab, malware.MalGeneCorpus())
	if report.Deactivated != 944 {
		t.Errorf("deactivated on end-user machines = %d, want 944", report.Deactivated)
	}
	if report.SpawnLoopSamples != 823 {
		t.Errorf("spawn loops on end-user machines = %d, want 823", report.SpawnLoopSamples)
	}
}
