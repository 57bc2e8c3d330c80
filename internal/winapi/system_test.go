package winapi

import (
	"strings"
	"testing"
	"time"

	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

func TestSchedulerRunsRegisteredProgram(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	var ran bool
	sys.RegisterProgram(`C:\sample.exe`, func(ctx *Context) int {
		ran = true
		return ExitOK
	})
	p := sys.Launch(`C:\sample.exe`, "sample.exe", nil)
	sys.Run(time.Minute)
	if !ran {
		t.Fatal("program body did not run")
	}
	if p.State != winsim.ProcessExited || p.ExitCode != ExitOK {
		t.Errorf("state=%v code=%d", p.State, p.ExitCode)
	}
}

func TestSchedulerUnregisteredImageExitsCleanly(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	p := sys.Launch(`C:\dropped.tmp.exe`, "dropped", nil)
	sys.Run(time.Minute)
	if p.State != winsim.ProcessExited {
		t.Error("unregistered image did not exit")
	}
}

func TestExitProcessUnwinds(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	reached := false
	sys.RegisterProgram(`C:\sample.exe`, func(ctx *Context) int {
		ctx.ExitProcess(7)
		reached = true
		return ExitOK
	})
	p := sys.Launch(`C:\sample.exe`, "", nil)
	sys.Run(time.Minute)
	if reached {
		t.Error("code after ExitProcess executed")
	}
	if p.ExitCode != 7 {
		t.Errorf("exit code = %d, want 7", p.ExitCode)
	}
}

func TestBudgetCutsOffInfiniteLoop(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	iterations := 0
	sys.RegisterProgram(`C:\sleeper.exe`, func(ctx *Context) int {
		for {
			ctx.Sleep(100 * time.Millisecond)
			iterations++
		}
	})
	p := sys.Launch(`C:\sleeper.exe`, "", nil)
	start := m.Clock.Now()
	sys.Run(time.Minute)
	if p.State != winsim.ProcessRunning {
		t.Errorf("state = %v, want still running at window end", p.State)
	}
	if got := m.Clock.Now() - start; got != time.Minute {
		t.Errorf("elapsed = %v, want exactly 1m", got)
	}
	if iterations < 500 {
		t.Errorf("iterations = %d, want ~599", iterations)
	}
}

func TestSelfSpawnLoopBoundedByBudget(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	sys.RegisterProgram(`C:\spawner.exe`, func(ctx *Context) int {
		if ctx.IsDebuggerPresent() {
			// Pretend deception tripped: respawn and bail, like the
			// paper's self-spawning samples.
			_, _ = ctx.CreateProcess(ctx.GetModuleFileName(), ctx.GetCommandLine())
			return ExitFailure
		}
		return ExitOK
	})
	p := sys.Launch(`C:\spawner.exe`, "spawner.exe", nil)
	// Force the debugger answer via a hook on every process, mimicking
	// Scarecrow, to produce the endless respawn chain.
	sys.ChildLaunched = func(parent, child *winsim.Process) {
		_ = sys.InstallHook(child.PID, "IsDebuggerPresent", func(c *Context, call *Call) Result {
			return Result{Status: StatusSuccess, Bool: true}
		})
	}
	_ = sys.InstallHook(p.PID, "IsDebuggerPresent", func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess, Bool: true}
	})
	sys.Run(time.Minute)

	spawns := trace.Summarize(m.Tracer.Events()).SelfSpawns
	if spawns < 100 {
		t.Errorf("self-spawns = %d, want hundreds within one minute", spawns)
	}
	if m.Clock.Now() > time.Minute {
		t.Errorf("clock overran budget: %v", m.Clock.Now())
	}
}

func TestMaxProcessesBackstop(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	sys.MaxProcesses = 10
	sys.RegisterProgram(`C:\fork.exe`, func(ctx *Context) int {
		_, _ = ctx.CreateProcess(`C:\fork.exe`, "")
		_, _ = ctx.CreateProcess(`C:\fork.exe`, "")
		return ExitOK
	})
	sys.Launch(`C:\fork.exe`, "", nil)
	ran := sys.Run(time.Hour)
	if ran != 10 {
		t.Errorf("ran = %d, want MaxProcesses", ran)
	}
}

func TestChildProcessesRunAfterParent(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	var order []string
	sys.RegisterProgram(`C:\parent.exe`, func(ctx *Context) int {
		order = append(order, "parent")
		_, _ = ctx.CreateProcess(`C:\child.exe`, "")
		order = append(order, "parent-after-create")
		return ExitOK
	})
	sys.RegisterProgram(`C:\child.exe`, func(ctx *Context) int {
		order = append(order, "child")
		return ExitOK
	})
	sys.Launch(`C:\parent.exe`, "", nil)
	sys.Run(time.Minute)
	want := []string{"parent", "parent-after-create", "child"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestParentProcessImage(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	explorer := m.Procs.FindByImage("explorer.exe")[0]
	p := sys.Launch(`C:\a.exe`, "", explorer)
	if got := sys.Context(p).ParentProcessImage(); got != "explorer.exe" {
		t.Errorf("parent image = %q", got)
	}
}

func TestProtectedProcessResistsTermination(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	victim := m.Procs.Create(`C:\tools\olydbg.exe`, "", 4, 0)
	victim.State = winsim.ProcessRunning
	victim.Protected = true
	p := sys.Launch(`C:\mal.exe`, "", nil)
	ctx := sys.Context(p)
	if st := ctx.TerminateProcess(victim.PID); st != StatusAccessDenied {
		t.Errorf("TerminateProcess = %v, want ACCESS_DENIED", st)
	}
	if victim.State == winsim.ProcessExited {
		t.Error("protected process died")
	}
	if st := ctx.InjectIntoProcess(victim.PID); st != StatusAccessDenied {
		t.Errorf("InjectIntoProcess = %v, want ACCESS_DENIED", st)
	}
}

func TestAPITraceEventsRecorded(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	p := sys.Launch(`C:\a.exe`, "", nil)
	ctx := sys.Context(p)
	ctx.IsDebuggerPresent()
	ctx.IsDebuggerPresent()
	ctx.GetTickCount()
	s := trace.Summarize(m.Tracer.Events())
	if s.APICalls["IsDebuggerPresent"] != 2 {
		t.Errorf("IsDebuggerPresent calls = %d", s.APICalls["IsDebuggerPresent"])
	}
	if s.APICalls["GetTickCount"] != 1 {
		t.Errorf("GetTickCount calls = %d", s.APICalls["GetTickCount"])
	}
}

// The run queue stays FIFO when it drains and refills, and a run cut off
// by MaxProcesses leaves the unrun tail queued, in order, for the next Run.
func TestRunQueueFIFOAcrossRefills(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	var order []string
	children := map[string][]string{
		"root": {"a", "b", "c"},
		"a":    {"d"},
		"c":    {"e"},
		"d":    {"f"},
	}
	for name := range children {
		name := name
		sys.RegisterProgram(`C:\`+name+`.exe`, func(ctx *Context) int {
			order = append(order, name)
			for _, child := range children[name] {
				_, _ = ctx.CreateProcess(`C:\`+child+`.exe`, "")
			}
			return ExitOK
		})
	}
	for _, leaf := range []string{"b", "e", "f"} {
		leaf := leaf
		sys.RegisterProgram(`C:\`+leaf+`.exe`, func(ctx *Context) int {
			order = append(order, leaf)
			return ExitOK
		})
	}
	sys.MaxProcesses = 2
	sys.Launch(`C:\root.exe`, "", nil)
	if ran := sys.Run(time.Minute); ran != 2 {
		t.Fatalf("first run ran %d processes, want 2", ran)
	}
	if got := sys.QueueLen(); got != 3 { // b, c, d
		t.Fatalf("QueueLen after a cut-off run = %d, want 3", got)
	}
	sys.MaxProcesses = 100
	sys.Run(time.Minute)
	if sys.QueueLen() != 0 {
		t.Fatalf("QueueLen after draining = %d", sys.QueueLen())
	}
	want := "root a b c d e f"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("run order = %q, want %q", got, want)
	}
}
