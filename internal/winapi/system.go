package winapi

import (
	"fmt"
	"strings"
	"time"

	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// ExitCode values programs conventionally return.
const (
	ExitOK      = 0
	ExitFailure = 1
)

// Program is the body of a simulated executable. It runs when the scheduler
// dispatches a process whose image the program is registered under, and
// returns the process exit code. Programs observe the machine exclusively
// through the Context's API surface (plus the modeled direct-memory and
// direct-syscall bypasses).
type Program func(ctx *Context) int

// Context is the view one process has of the system: the API surface bound
// to a (machine, process) pair.
type Context struct {
	// M is the underlying machine and P the calling process.
	M *winsim.Machine
	P *winsim.Process

	sys *System
}

// System returns the owning System (used by deployment frameworks such as
// the Scarecrow controller to install hooks and launch children).
func (c *Context) System() *System { return c.sys }

func (c *Context) recordAPICall(name string) {
	c.M.Record(trace.Event{
		Kind: trace.KindAPICall, PID: c.P.PID, Image: c.P.Image,
		Target: name, Success: true,
	})
}

// queueEntry is one pending process execution.
type queueEntry struct {
	proc *winsim.Process
}

// System owns the user-mode world of one machine: registered program
// images, per-process hook state, and the deterministic run queue.
type System struct {
	// M is the machine this system runs on.
	M *winsim.Machine

	programs map[string]Program // normalized image path -> body
	states   winsim.PIDMap[*procState]
	// queue holds pending executions; queue[head:] are still to run.
	// Run pops by advancing head and rewinds both to zero whenever the
	// queue drains, so a self-spawn loop's one-at-a-time Launch appends
	// reuse the same backing array instead of growing a fresh one.
	queue []queueEntry
	head  int
	// kernelHooks is the machine-wide syscall-gate hook table (see
	// kernelhooks.go); nil until the first InstallKernelHook.
	kernelHooks map[string][]HookHandler

	// frames is the depth-indexed stack of reusable API call frames (see
	// Call); frames[:depth] are in flight. The scheduler runs one process
	// body at a time, to completion, so one stack serves the whole system.
	frames []*Call
	depth  int

	// ChildLaunched, when non-nil, is called after a process is created
	// and queued, before it runs. The Scarecrow controller uses it to
	// follow injection into descendants of the target.
	ChildLaunched func(parent, child *winsim.Process)

	// MaxProcesses bounds the number of processes one Run may execute, as
	// a backstop against runaway fork bombs.
	MaxProcesses int

	// Enforcer, when non-nil, is consulted before every API call with the
	// calling PID and API name; its decision is applied at that boundary
	// (see enforce.go). The real-time deterrence tier installs it to kill,
	// throttle, or isolate a flagged payload mid-run. Nil costs nothing.
	Enforcer func(pid int, api string) Enforcement

	// monitor is the environment's own analysis-monitor hook table (e.g.
	// the Cuckoo in-guest monitor), built once from the machine profile
	// and attached to every process created later; nil when the profile
	// monitors nothing.
	monitor *HookTable

	executed int
}

// monitorPassthrough is the body of every environment-monitor hook: the
// sandbox's monitor observes, it does not rewrite.
func monitorPassthrough(c *Context, call *Call) Result { return call.Original() }

// NewSystem wraps a machine with an empty user-mode world. The machine's
// MonitorHookedAPIs (its own analysis monitor, e.g. the Cuckoo in-guest
// monitor) are materialized as pass-through hooks in every process created
// later.
func NewSystem(m *winsim.Machine) *System {
	s := &System{
		M:            m,
		programs:     make(map[string]Program),
		MaxProcesses: 20000,
	}
	s.states.Bind(m.Procs)
	if len(m.MonitorHookedAPIs) > 0 {
		s.monitor = NewHookTable()
		for _, api := range m.MonitorHookedAPIs {
			// Unchecked install: profile data is not a deployment and must
			// not make machine construction fallible.
			s.monitor.hook(api, monitorPassthrough)
		}
	}
	return s
}

func (s *System) stateFor(pid int) *procState {
	st := s.states.Get(pid)
	if st == nil {
		st = newProcState()
		s.states.Set(pid, st)
		// The environment's own monitor hooks every analyzed process.
		if s.monitor != nil {
			st.tables = append(st.tables, s.monitor)
		}
	}
	return st
}

// ProcData returns the per-process data map hook packages may use.
func (s *System) ProcData(pid int) map[string]any {
	st := s.stateFor(pid)
	if st.Data == nil {
		st.Data = make(map[string]any)
	}
	return st.Data
}

// RegisterProgram binds a program body to an executable image path. The
// same body runs for every process created from that image (including
// self-spawns).
func (s *System) RegisterProgram(image string, body Program) {
	s.programs[winsim.NormalizePath(image)] = body
}

// ProgramFor returns the body registered for an image, if any.
func (s *System) ProgramFor(image string) (Program, bool) {
	p, ok := s.programs[winsim.NormalizePath(image)]
	return p, ok
}

// Launch creates a process for the image (emitting the kernel event) and
// queues it for execution. parent may be nil for top-level launches.
func (s *System) Launch(image, cmdline string, parent *winsim.Process) *winsim.Process {
	child := s.M.SpawnProcess(image, cmdline, parent)
	s.queue = append(s.queue, queueEntry{proc: child})
	if s.ChildLaunched != nil && parent != nil {
		s.ChildLaunched(parent, child)
	}
	return child
}

// Context builds an API context for an existing process.
func (s *System) Context(p *winsim.Process) *Context {
	return &Context{M: s.M, P: p, sys: s}
}

// exitPanic unwinds a program body when it calls ExitProcess.
type exitPanic struct{ code int }

// Run executes queued processes in FIFO order until the queue drains or the
// virtual time budget expires. It returns the number of processes that ran
// (fully or partially). Processes still on the queue or cut off mid-body
// when the budget expires remain in ProcessRunning/ProcessPending state —
// the same truncation a one-minute sandbox observation window imposes.
func (s *System) Run(budget time.Duration) int {
	deadline := s.M.Clock.Now() + budget
	s.M.Clock.SetDeadline(deadline)
	defer s.M.Clock.SetDeadline(0)

	ran := 0
	for s.head < len(s.queue) {
		if s.executed >= s.MaxProcesses {
			break
		}
		entry := s.queue[s.head]
		s.queue[s.head] = queueEntry{}
		s.head++
		if s.head == len(s.queue) {
			s.queue, s.head = s.queue[:0], 0
		}
		if entry.proc.State == winsim.ProcessExited {
			continue // killed (e.g. by a mitigation policy) before it ran
		}
		s.executed++
		ran++
		if expired := s.runOne(entry.proc); expired {
			break
		}
	}
	return ran
}

// runOne executes a single process body, returning true when the time
// budget expired during the run.
func (s *System) runOne(p *winsim.Process) (expired bool) {
	p.State = winsim.ProcessRunning
	ctx := s.Context(p)

	var path [128]byte
	body, registered := s.programs[string(winsim.AppendNormalPath(path[:0], p.Image))]

	// A body unwound by ExitProcess or the time budget leaves its
	// in-flight call frames behind; drop them so the next body's calls
	// start from the same depth.
	depth := s.depth
	defer func() {
		r := recover()
		s.depth = depth
		switch v := r.(type) {
		case nil:
		case exitPanic:
			s.M.ExitProcess(p, v.code)
		case winsim.BudgetExceeded:
			expired = true // process was still running when the window closed
		default:
			panic(v)
		}
	}()

	s.M.Clock.Advance(processStartupCost)
	if !registered {
		// Unregistered images (dropped binaries with no modeled body) start
		// and exit cleanly; their creation is what the traces care about.
		s.M.ExitProcess(p, ExitOK)
		return false
	}
	code := body(ctx)
	s.M.ExitProcess(p, code)
	return false
}

// QueueLen returns the number of processes waiting to run.
func (s *System) QueueLen() int { return len(s.queue) - s.head }

// ExecutedCount returns how many processes have been dispatched so far.
func (s *System) ExecutedCount() int { return s.executed }

// String summarizes the system state for debugging.
func (s *System) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "system profile=%s queued=%d executed=%d programs=%d",
		s.M.Profile, s.QueueLen(), s.executed, len(s.programs))
	return sb.String()
}
