// Package analysis is the experiment environment of Figure 3: a cluster of
// simulated bare-metal Windows machines, each reset to a clean state before
// every sample (a winsim.Machine cloned per run from a per-profile template
// snapshot models the Deep Freeze reset in O(1); see Lab.acquireMachine),
// an agent that runs the sample for one virtual minute with or without
// Scarecrow, and kernel-activity tracing throughout. On top of the lab sit
// the verdict logic of §IV-C and runners that regenerate every table and
// figure of the evaluation.
//
// Failure is a first-class outcome: a run that errors or panics is
// contained to its own SampleResult (Err, VerdictError) and the sweep
// continues — one bad machine never loses the other 1,053 results. See
// DESIGN.md's error-handling contract.
package analysis

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/trace"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// ObservationWindow is how long the agent lets each sample run before the
// machine is reset (the paper's one minute).
const ObservationWindow = time.Minute

// SpawnLoopThreshold is the self-spawn count above which a sample is
// considered caught in a deception-induced respawn loop (§IV-C: "spawned
// itself more than 10 times").
const SpawnLoopThreshold = 10

// Lab is the analysis cluster configuration.
type Lab struct {
	// Profile selects the cluster machines; the paper's evaluation runs on
	// bare metal (anti-VM samples would short-circuit on VMs).
	Profile winsim.ProfileName
	// Seed drives machine construction; each run derives its own seed so
	// machines vary like real cluster nodes while staying reproducible.
	Seed int64
	// Config is the Scarecrow deployment configuration for protected runs.
	Config core.Config
	// DB, when non-nil, replaces the stock deception database for
	// protected runs (e.g. one extended by a config file or a crawl).
	DB *core.DB
	// Workers bounds run parallelism (the cluster width). Zero means
	// GOMAXPROCS.
	Workers int
	// RetryFailures makes a sweep retry a failed run once on a fresh
	// machine with a derived seed (the cluster operator's "re-image and
	// requeue" move) before recording the failure.
	RetryFailures bool
	// FaultPlanFor, when non-nil, arms the machines of run index (attempt
	// 1 or 2) with a deterministic fault plan. Test-and-drill hook: nil
	// return leaves the run unfaulted.
	FaultPlanFor func(index, attempt int) *winsim.FaultPlan
	// DisablePooling forces every run to rebuild its machine from scratch
	// instead of cloning the per-profile template snapshot — the A/B
	// timing knob for comparing the O(1) reset against the full re-image.
	// Results are bit-identical either way (the differential harness in
	// differential_test.go enforces it).
	DisablePooling bool

	// poolMu guards the lazily built template snapshot. The template is
	// keyed by profile so a Lab whose Profile is reassigned between runs
	// transparently rebuilds it.
	poolMu          sync.Mutex
	template        *winsim.Snapshot
	templateProfile winsim.ProfileName
}

// templateSeed seeds the pool's template machine. The value is irrelevant
// to clones — Snapshot.Clone re-seeds — but fixed so template construction
// is reproducible.
const templateSeed = 0

// acquireMachine is the cluster's Deep Freeze reset: it returns a machine
// for the given seed, cloned from the per-profile template snapshot in O(1)
// (or built from scratch when pooling is disabled). Profile construction
// never consumes the machine RNG, so a clone re-seeded for this run is
// bit-identical to NewProfileMachine(profile, seed).
func (l *Lab) acquireMachine(seed int64) *winsim.Machine {
	if l.DisablePooling {
		return winsim.NewProfileMachine(l.Profile, seed)
	}
	l.poolMu.Lock()
	if l.template == nil || l.templateProfile != l.Profile {
		l.template = winsim.NewProfileMachine(l.Profile, templateSeed).Snapshot()
		l.templateProfile = l.Profile
	}
	template := l.template
	l.poolMu.Unlock()
	return template.Clone(seed)
}

// NewLab returns the paper's evaluation setup: bare-metal machines and the
// recommended Scarecrow configuration for them.
func NewLab(seed int64) *Lab {
	return &Lab{
		Profile: winsim.ProfileBareMetalSandbox,
		Seed:    seed,
		Config:  core.RecommendedConfig(string(winsim.ProfileBareMetalSandbox)),
	}
}

// Execution is one sample run on one freshly reset machine.
type Execution struct {
	// Summary condenses the kernel activities of the sample's process
	// subtree.
	Summary trace.Summary
	// Triggers is the Scarecrow IPC trigger stream (empty for raw runs).
	Triggers []core.TriggerReport
	// Alerts carries the mitigation alarms raised (protected runs only).
	Alerts []string
	// HookDetectionLikely marks protected runs where the sample went
	// quiet without any trigger report: the deception that fired was a
	// direct-memory artifact (prologue bytes) Scarecrow plants but cannot
	// observe being read.
	HookDetectionLikely bool
	// VirtualTime is the machine's clock at the end of the run.
	VirtualTime time.Duration
}

// runRaw executes the specimen without Scarecrow: the agent (python.exe)
// launches it, as in the real cluster.
func (l *Lab) runRaw(s *malware.Specimen, seed int64, plan *winsim.FaultPlan) (Execution, error) {
	m := l.acquireMachine(seed)
	if plan != nil {
		m.ArmFaults(*plan)
	}
	sys := winapi.NewSystem(m)
	s.Register(sys)
	m.FS.Touch(s.Image, 180<<10)
	parent, err := agentProcess(m)
	if err != nil {
		return Execution{}, err
	}
	root := sys.Launch(s.Image, s.ID, parent)
	sys.Run(ObservationWindow)
	ex := Execution{Summary: subtreeSummary(m, root.PID), VirtualTime: m.Clock.Now()}
	// The machine is discarded now; recycle its event buffer. Summaries
	// hold copies, never the recorder's own slice.
	m.Tracer.Release()
	return ex, nil
}

// runProtected executes the specimen under the Scarecrow controller.
func (l *Lab) runProtected(s *malware.Specimen, seed int64, plan *winsim.FaultPlan) (Execution, error) {
	m := l.acquireMachine(seed)
	if plan != nil {
		m.ArmFaults(*plan)
	}
	sys := winapi.NewSystem(m)
	s.Register(sys)
	m.FS.Touch(s.Image, 180<<10)
	db := l.DB
	if db == nil {
		db = core.NewDB()
	}
	ctrl, err := core.Deploy(sys, core.NewEngine(db, l.Config))
	if err != nil {
		return Execution{}, fmt.Errorf("analysis: deploying scarecrow: %w", err)
	}
	root, err := ctrl.LaunchTarget(s.Image, s.ID)
	if err != nil {
		return Execution{}, fmt.Errorf("analysis: launching %s: %w", s.ID, err)
	}
	sys.Run(ObservationWindow)
	ex := Execution{
		Summary:     subtreeSummary(m, root.PID),
		Triggers:    ctrl.Session.Triggers(),
		Alerts:      ctrl.Session.Alerts(),
		VirtualTime: m.Clock.Now(),
	}
	m.Tracer.Release()
	return ex, nil
}

// agentProcess returns the machine's analysis agent when present (the
// bare-metal cluster) and explorer otherwise. A profile providing neither
// cannot parent a sample and is reported as an error rather than an
// index-out-of-range panic.
func agentProcess(m *winsim.Machine) (*winsim.Process, error) {
	for _, image := range []string{"python.exe", "pythonw.exe", "explorer.exe"} {
		if agents := m.Procs.FindByImage(image); len(agents) > 0 {
			return agents[0], nil
		}
	}
	return nil, fmt.Errorf("analysis: profile %q has no analysis agent or explorer.exe to parent the sample", m.Profile)
}

// subtreeDescendants returns the PID set of the sample's process tree,
// built by walking actual parent links. ProcessTable.All returns creation
// order and parents are always created before their children, so one pass
// suffices.
func subtreeDescendants(m *winsim.Machine, rootPID int) *winsim.PIDMap[bool] {
	desc := new(winsim.PIDMap[bool])
	desc.Bind(m.Procs)
	desc.Set(rootPID, true)
	for _, p := range m.Procs.All() {
		if desc.Get(p.ParentPID) {
			desc.Set(p.PID, true)
		}
	}
	return desc
}

// subtreeSummary condenses the kernel events attributable to the sample's
// process tree. Attribution follows parent links — a PID threshold would
// also claim unrelated processes that merely started after the sample
// (engine- or agent-spawned work in protected runs), corrupting the
// file/registry diff the verdict rests on.
func subtreeSummary(m *winsim.Machine, rootPID int) trace.Summary {
	desc := subtreeDescendants(m, rootPID)
	return m.Tracer.Summarize(func(e trace.Event) bool { return desc.Get(e.PID) })
}

// SampleResult is the paired-execution outcome for one sample.
type SampleResult struct {
	Specimen  *malware.Specimen
	Raw       Execution
	Protected Execution
	Verdict   Verdict
	// Err is set when the run failed (launch error, injected fault,
	// recovered panic); the Verdict is then VerdictError and both
	// executions are zero. The failure is contained: surrounding sweeps
	// keep going.
	Err error
	// Stack holds the goroutine stack of a recovered panic ("" for plain
	// errors).
	Stack string
	// Attempts counts how many times the run executed (2 after a retry).
	Attempts int
	// RecoveredPanics counts panics recovered across those attempts.
	RecoveredPanics int
}

// RunSample executes a sample with and without Scarecrow on freshly reset
// machines ("at about the same time", §IV-C) and computes the verdict.
// Failures — including panics out of the simulation — are contained into
// the result's Err/Stack fields, never propagated.
func (l *Lab) RunSample(s *malware.Specimen, runSeed int64) SampleResult {
	res := l.runContained(s, runSeed, nil)
	res.Attempts = 1
	return res
}

// RunSampleSeeded executes one contained paired run on machines seeded
// exactly with seed, independent of the lab's own Seed. This is the
// verdict-service entry point: scarecrowd keys its cache on
// (specimen, profile, seed), so the machine seed must be a pure function
// of the request, not of which worker's lab happens to serve it. A Lab is
// not safe for concurrent use — the service gives each worker its own.
func (l *Lab) RunSampleSeeded(s *malware.Specimen, seed int64) SampleResult {
	// runContained derives the machine seed as l.Seed^runSeed; cancel the
	// lab term so the machines see exactly seed.
	res := l.runContained(s, l.Seed^seed, nil)
	res.Attempts = 1
	return res
}

// runContained is the containment boundary: one paired execution whose
// panics are recovered into the result. This is the lab's analogue of the
// scheduler's exitPanic/BudgetExceeded recovery — but for faults nobody
// sanctioned.
func (l *Lab) runContained(s *malware.Specimen, runSeed int64, plan *winsim.FaultPlan) (res SampleResult) {
	res.Specimen = s
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("analysis: run of %s panicked: %v", s.ID, r)
			res.Stack = string(debug.Stack())
			res.RecoveredPanics++
			res.Verdict = Verdict{Category: VerdictError}
		}
	}()
	raw, err := l.runRaw(s, l.Seed^runSeed, plan)
	if err != nil {
		res.Err = err
		res.Verdict = Verdict{Category: VerdictError}
		return res
	}
	prot, err := l.runProtected(s, l.Seed^runSeed, plan)
	if err != nil {
		res.Err = err
		res.Verdict = Verdict{Category: VerdictError}
		return res
	}
	if len(prot.Triggers) == 0 {
		// No hooked API observed a probe; if the sample still changed
		// behaviour, the planted prologue bytes are the only deception it
		// can have read.
		prot.HookDetectionLikely = true
	}
	res.Raw = raw
	res.Protected = prot
	res.Verdict = Judge(raw, prot)
	return res
}

// retrySeedSalt derives the second-attempt run seed: a re-imaged cluster
// node is a different machine, but a reproducibly different one.
const retrySeedSalt = 0x5ca3ec40

// runIndexed executes corpus position i, applying the lab's fault plan and
// retry policy.
func (l *Lab) runIndexed(i int, s *malware.Specimen) SampleResult {
	runSeed := int64(i + 1)
	res := l.runContained(s, runSeed, l.planFor(i, 1))
	res.Attempts = 1
	if res.Err != nil && l.RetryFailures {
		retry := l.runContained(s, runSeed^retrySeedSalt, l.planFor(i, 2))
		retry.Attempts = 2
		retry.RecoveredPanics += res.RecoveredPanics
		res = retry
	}
	return res
}

func (l *Lab) planFor(index, attempt int) *winsim.FaultPlan {
	if l.FaultPlanFor == nil {
		return nil
	}
	return l.FaultPlanFor(index, attempt)
}

// RunReport is the health summary of one corpus sweep: how many runs
// failed, what was recovered, and what the sweep cost in wall and virtual
// time. VerdictErrors tells figure/table readers how many samples are
// excluded from the verdict counts.
type RunReport struct {
	// Samples is the corpus size.
	Samples int
	// VerdictErrors counts runs whose final outcome is VerdictError.
	VerdictErrors int
	// RecoveredPanics counts panics recovered across all attempts.
	RecoveredPanics int
	// Retries counts second attempts; Recovered counts those that
	// succeeded.
	Retries   int
	Recovered int
	// Workers is the cluster width used.
	Workers int
	// Wall is the real elapsed sweep time; Virtual sums the machine-clock
	// time of every execution (the cluster-minutes the sweep modeled).
	Wall    time.Duration
	Virtual time.Duration
}

// Throughput returns machine executions per wall-clock second (each sample
// costs two executions: raw and protected). The sweep-rate figure the
// benchmarks report.
func (r RunReport) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(2*r.Samples) / r.Wall.Seconds()
}

// String renders the health summary the way labrunner prints it.
func (r RunReport) String() string {
	return fmt.Sprintf(
		"sweep health: %d runs, %d failed (VerdictError), %d recovered panics, %d retries (%d recovered), %d workers, %.1fs wall, %s virtual",
		r.Samples, r.VerdictErrors, r.RecoveredPanics, r.Retries, r.Recovered,
		r.Workers, r.Wall.Seconds(), r.Virtual)
}

// Sweep evaluates many samples in parallel (the machine cluster of
// Figure 3) and reports sweep health. Results keep corpus order; a failed
// run occupies its slot with Err set and a VerdictError verdict while the
// rest of the sweep completes normally.
func (l *Lab) Sweep(samples []*malware.Specimen) ([]SampleResult, RunReport) {
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	results := make([]SampleResult, len(samples))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = l.runIndexed(i, samples[i])
			}
		}()
	}
	for i := range samples {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	report := RunReport{Samples: len(samples), Workers: workers, Wall: time.Since(start)}
	for _, res := range results {
		if res.Err != nil {
			report.VerdictErrors++
		}
		report.RecoveredPanics += res.RecoveredPanics
		if res.Attempts > 1 {
			report.Retries++
			if res.Err == nil {
				report.Recovered++
			}
		}
		report.Virtual += res.Raw.VirtualTime + res.Protected.VirtualTime
	}
	return results, report
}

// RunCorpus evaluates many samples in parallel, discarding the health
// report. Results keep corpus order.
func (l *Lab) RunCorpus(samples []*malware.Specimen) []SampleResult {
	results, _ := l.Sweep(samples)
	return results
}
