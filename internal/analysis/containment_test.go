package analysis

import (
	"reflect"
	"strings"
	"testing"

	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// faultAt returns a FaultPlanFor hook firing plan for one (index, attempt)
// pair only.
func faultAt(index, attempt int, plan winsim.FaultPlan) func(int, int) *winsim.FaultPlan {
	return func(i, a int) *winsim.FaultPlan {
		if i == index && a == attempt {
			return &plan
		}
		return nil
	}
}

// The tentpole guarantee: one injected machine fault fails exactly its own
// run; the other nine samples produce verdicts identical to a fault-free
// sweep, and the health report accounts for the loss.
func TestSweepSurvivesWorkerPanic(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:10]

	faulted := NewLab(42)
	faulted.FaultPlanFor = faultAt(3, 1, winsim.FaultPlan{FailFileOp: 1})
	results, report := faulted.Sweep(corpus)

	if report.Samples != 10 || report.VerdictErrors != 1 || report.RecoveredPanics != 1 {
		t.Fatalf("report = %+v, want Samples=10 VerdictErrors=1 RecoveredPanics=1", report)
	}
	bad := results[3]
	if bad.Err == nil {
		t.Fatal("faulted run must record an error")
	}
	if !strings.Contains(bad.Err.Error(), "injected fault") {
		t.Errorf("error %q does not mention the injected fault", bad.Err)
	}
	if bad.Stack == "" {
		t.Error("recovered panic must capture a stack trace")
	}
	if bad.Verdict.Category != VerdictError || bad.Verdict.Deactivated {
		t.Errorf("faulted verdict = %+v, want Category=VerdictError and not deactivated", bad.Verdict)
	}
	if bad.RecoveredPanics != 1 || bad.Attempts != 1 {
		t.Errorf("faulted result: RecoveredPanics=%d Attempts=%d, want 1 and 1", bad.RecoveredPanics, bad.Attempts)
	}

	baseline, baseReport := NewLab(42).Sweep(corpus)
	if baseReport.VerdictErrors != 0 || baseReport.RecoveredPanics != 0 {
		t.Fatalf("fault-free sweep reported failures: %+v", baseReport)
	}
	for i := range corpus {
		if i == 3 {
			continue
		}
		if results[i].Err != nil {
			t.Fatalf("sample %d: unfaulted run errored: %v", i, results[i].Err)
		}
		if !reflect.DeepEqual(results[i].Verdict, baseline[i].Verdict) {
			t.Errorf("sample %d: verdict diverged from the fault-free sweep", i)
		}
	}
}

// An injection fault surfaces through the error path (Deploy/LaunchTarget
// return errors), not as a panic — containment records it without a stack.
func TestInjectionFaultIsContainedError(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:2]
	lab := NewLab(42)
	lab.FaultPlanFor = faultAt(0, 1, winsim.FaultPlan{FailInjection: true})
	results, report := lab.Sweep(corpus)

	if report.VerdictErrors != 1 {
		t.Fatalf("report = %+v, want exactly one VerdictError", report)
	}
	bad := results[0]
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "injected fault") {
		t.Fatalf("err = %v, want an injection-fault error", bad.Err)
	}
	if bad.RecoveredPanics != 0 {
		t.Errorf("error-path failure must not count as a recovered panic (got %d)", bad.RecoveredPanics)
	}
	if bad.Stack != "" {
		t.Error("error-path failure must not capture a panic stack")
	}
	if results[1].Err != nil {
		t.Errorf("neighbouring sample failed: %v", results[1].Err)
	}
}

// A process-table fault panics mid-simulation and is recovered like any
// other machine fault.
func TestProcessFaultIsContained(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:1]
	lab := NewLab(42)
	lab.FaultPlanFor = faultAt(0, 1, winsim.FaultPlan{FailProcOp: 1})
	results, report := lab.Sweep(corpus)

	if report.VerdictErrors != 1 || report.RecoveredPanics != 1 {
		t.Fatalf("report = %+v, want VerdictErrors=1 RecoveredPanics=1", report)
	}
	if results[0].Verdict.Category != VerdictError {
		t.Errorf("verdict category = %v, want VerdictError", results[0].Verdict.Category)
	}
}

// With RetryFailures set, a fault that fires only on the first attempt is
// absorbed: the retry runs on a re-imaged machine and the sweep records a
// recovery instead of a failure.
func TestRetryRecoversFailedRun(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:3]
	lab := NewLab(42)
	lab.RetryFailures = true
	lab.FaultPlanFor = faultAt(1, 1, winsim.FaultPlan{FailFileOp: 1})
	results, report := lab.Sweep(corpus)

	if report.VerdictErrors != 0 {
		t.Fatalf("report = %+v, want no VerdictErrors after recovery", report)
	}
	if report.Retries != 1 || report.Recovered != 1 || report.RecoveredPanics != 1 {
		t.Fatalf("report = %+v, want Retries=1 Recovered=1 RecoveredPanics=1", report)
	}
	res := results[1]
	if res.Err != nil {
		t.Fatalf("retried run still failed: %v", res.Err)
	}
	if res.Attempts != 2 || res.RecoveredPanics != 1 {
		t.Errorf("retried result: Attempts=%d RecoveredPanics=%d, want 2 and 1", res.Attempts, res.RecoveredPanics)
	}
	if res.Verdict.Category == VerdictError {
		t.Error("recovered run must carry a real verdict")
	}
}

// A fault that fires on both attempts stays a failure even under retry.
func TestRetryExhaustionStaysFailed(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:1]
	lab := NewLab(42)
	lab.RetryFailures = true
	lab.FaultPlanFor = func(i, a int) *winsim.FaultPlan {
		return &winsim.FaultPlan{FailFileOp: 1}
	}
	results, report := lab.Sweep(corpus)

	if report.VerdictErrors != 1 || report.Retries != 1 || report.Recovered != 0 {
		t.Fatalf("report = %+v, want VerdictErrors=1 Retries=1 Recovered=0", report)
	}
	if results[0].RecoveredPanics != 2 {
		t.Errorf("RecoveredPanics = %d, want 2 (one per attempt)", results[0].RecoveredPanics)
	}
}

// Two sweeps with the same seed and the same fault plan must agree on
// everything except wall-clock time.
func TestSweepDeterminismWithFaults(t *testing.T) {
	corpus := malware.MalGeneCorpus()[:8]
	run := func() ([]SampleResult, RunReport) {
		lab := NewLab(7)
		lab.RetryFailures = true
		lab.FaultPlanFor = faultAt(2, 1, winsim.FaultPlan{FailRegOp: 5, FailFileOp: 4})
		return lab.Sweep(corpus)
	}
	resA, repA := run()
	resB, repB := run()

	repA.Wall, repB.Wall = 0, 0
	if repA != repB {
		t.Fatalf("reports diverged:\n  %+v\n  %+v", repA, repB)
	}
	for i := range resA {
		if (resA[i].Err == nil) != (resB[i].Err == nil) {
			t.Fatalf("sample %d: error presence diverged", i)
		}
		if resA[i].Err != nil && resA[i].Err.Error() != resB[i].Err.Error() {
			t.Errorf("sample %d: error text diverged:\n  %v\n  %v", i, resA[i].Err, resB[i].Err)
		}
		if !reflect.DeepEqual(resA[i].Verdict, resB[i].Verdict) {
			t.Errorf("sample %d: verdict diverged", i)
		}
	}
}

// A profile without an analysis agent or explorer cannot parent a sample;
// that is an error, not an index-out-of-range panic.
func TestAgentProcessMissingAgent(t *testing.T) {
	m := winsim.NewMachine("stripped", 1)
	if _, err := agentProcess(m); err == nil {
		t.Fatal("agentProcess on a process-less machine must error")
	} else if !strings.Contains(err.Error(), "stripped") {
		t.Errorf("error %q does not name the profile", err)
	}
}

// Even through the contained path, a stripped profile yields an error
// result rather than killing the run.
func TestRunSampleStrippedProfileIsContained(t *testing.T) {
	lab := NewLab(1)
	lab.Profile = winsim.ProfileName("stripped")
	res := lab.RunSampleSeeded(malware.MalGeneCorpus()[0], lab.Seed^1)
	if res.Err == nil {
		t.Fatal("run on a stripped profile must record an error")
	}
	if res.Verdict.Category != VerdictError {
		t.Errorf("verdict category = %v, want VerdictError", res.Verdict.Category)
	}
}

// subtreeSummary must attribute by parent chain: an unrelated process that
// merely starts after the sample (higher PID) is excluded even when its
// events succeed. The old threshold filter (e.PID >= rootPID) claimed them.
func TestSubtreeSummaryExcludesUnrelatedProcess(t *testing.T) {
	m := winsim.NewProfileMachine(winsim.ProfileBareMetalSandbox, 1)
	agent, err := agentProcess(m)
	if err != nil {
		t.Fatal(err)
	}

	root := m.Procs.Create(`C:\sample.exe`, "sample.exe", agent.PID, 0)
	child := m.Procs.Create(`C:\dropped.exe`, "dropped.exe", root.PID, 0)
	unrelated := m.Procs.Create(`C:\svchost.exe`, "svchost.exe", agent.PID, 0)
	if unrelated.PID <= root.PID {
		t.Fatalf("test setup: unrelated PID %d must exceed root PID %d", unrelated.PID, root.PID)
	}

	m.Record(trace.Event{Kind: trace.KindFileWrite, PID: child.PID,
		Image: child.Image, Target: `C:\payload.bin`, Success: true})
	m.Record(trace.Event{Kind: trace.KindFileWrite, PID: unrelated.PID,
		Image: unrelated.Image, Target: `C:\unrelated.log`, Success: true})

	sum := subtreeSummary(m, root.PID)
	if len(sum.FilesWritten) != 1 {
		t.Fatalf("FilesWritten = %v, want exactly the child's write", sum.FilesWritten)
	}
	if _, ok := sum.FilesWritten[`c:\payload.bin`]; !ok {
		t.Error("the sample subtree's own write is missing")
	}
	if _, ok := sum.FilesWritten[`c:\unrelated.log`]; ok {
		t.Error("an unrelated later process's write was misattributed to the sample")
	}
}
