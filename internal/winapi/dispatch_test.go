package winapi

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"scarecrow/internal/winsim"
)

// twoDeep hooks api in the process twice, the shape every Scarecrow-injected
// process has: a shared table (the deployment's patch set) beneath a local
// per-process hook. Both pass through to the genuine implementation.
func twoDeep(t *testing.T, sys *System, pid int, apis ...string) {
	t.Helper()
	table := NewHookTable()
	for _, api := range apis {
		if err := table.Hook(api, func(c *Context, call *Call) Result { return call.Original() }); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InstallHookTable(pid, table); err != nil {
		t.Fatal(err)
	}
	for _, api := range apis {
		if err := sys.InstallHook(pid, api, func(c *Context, call *Call) Result { return call.Original() }); err != nil {
			t.Fatal(err)
		}
	}
}

// Dispatch through a two-deep chain allocates nothing: results travel by
// value and the call frame is reused. CreateProcess keeps the child's own
// allocations — its Process and its module slice.
func TestDispatchAllocBudget(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	p := sys.Launch(`C:\Users\john\target.exe`, "target.exe", nil)
	ctx := sys.Context(p)
	twoDeep(t, sys, p.PID, "CreateProcess", "Sleep", "IsDebuggerPresent")

	const childAllocs = 2
	for _, tc := range []struct {
		name   string
		budget float64
		op     func()
	}{
		{"IsDebuggerPresent", 0, func() { ctx.IsDebuggerPresent() }},
		{"Sleep", 0, func() { ctx.Sleep(time.Millisecond) }},
		{"CreateProcess", childAllocs, func() { ctx.CreateProcess(`C:\Users\john\target.exe`, "target.exe") }},
	} {
		// Grow the trace, process table and run queue to working size so
		// their amortized growth stays below one allocation per call.
		for i := 0; i < 2000; i++ {
			tc.op()
		}
		if got := testing.AllocsPerRun(1000, tc.op); got > tc.budget {
			t.Errorf("%s through a two-deep chain allocates %.0f objects/call, budget is %.0f", tc.name, got, tc.budget)
		}
	}
	if sys.depth != 0 {
		t.Errorf("frame depth %d after dispatch, want 0", sys.depth)
	}
}

// A Result travels by value through every layer of the chain, so it must
// stay small enough to be returned in registers; large or rare
// out-parameters belong in its Payload.
func TestResultSize(t *testing.T) {
	if got := unsafe.Sizeof(Result{}); got > 64 {
		t.Errorf("winapi.Result is %d bytes, budget is 64", got)
	}
}

// A hook that edits the genuine payload in place — rewriting and
// appending to its adapter and process lists, as the Scarecrow engine
// does — changes only its own call's answer. The next call at the same
// frame depth, hooked or not, starts from a fresh genuine payload, and
// the lists earlier calls returned stay as they were.
func TestEditedPayloadDoesNotLeak(t *testing.T) {
	sys, hooked := newTestSystem(t)
	plain := sys.Context(sys.Launch(`C:\Users\john\plain.exe`, "plain.exe", nil))
	table := NewHookTable()
	for _, api := range []string{"GetAdaptersInfo", "CreateToolhelp32Snapshot"} {
		if err := table.Hook(api, func(c *Context, call *Call) Result {
			r := call.Original()
			p := call.Edit(&r)
			if len(p.Adapters) > 0 {
				p.Adapters[0].MAC = "rewritten"
			}
			if len(p.Entries) > 0 {
				p.Entries[0].Image = "rewritten.exe"
			}
			p.Adapters = append(p.Adapters, AdapterInfo{MAC: "08:00:27:de:ad:01"})
			p.Entries = append(p.Entries, ProcessEntry{PID: 90000, ParentPID: 4, Image: "decoy.exe"})
			return r
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InstallHookTable(hooked.P.PID, table); err != nil {
		t.Fatal(err)
	}

	macs, procs := plain.GetAdaptersInfo(), plain.CreateToolhelp32Snapshot()
	if len(macs) == 0 || len(procs) == 0 {
		t.Fatalf("genuine lists are empty: %v %v", macs, procs)
	}
	wantMACs := append([]AdapterInfo(nil), macs...)
	wantProcs := append([]ProcessEntry(nil), procs...)
	for round := 0; round < 3; round++ {
		gotMACs, gotProcs := hooked.GetAdaptersInfo(), hooked.CreateToolhelp32Snapshot()
		if len(gotMACs) != len(wantMACs)+1 || gotMACs[0].MAC != "rewritten" {
			t.Errorf("round %d: hooked GetAdaptersInfo = %v, want the genuine %d adapters rewritten plus one", round, gotMACs, len(wantMACs))
		}
		if len(gotProcs) != len(wantProcs)+1 || gotProcs[0].Image != "rewritten.exe" {
			t.Errorf("round %d: hooked snapshot has %d entries (first %+v), want %d rewritten plus one", round, len(gotProcs), gotProcs[0], len(wantProcs))
		}
		if got := plain.GetAdaptersInfo(); !reflect.DeepEqual(got, wantMACs) {
			t.Errorf("round %d: unhooked GetAdaptersInfo after a hooked one = %v, want %v", round, got, wantMACs)
		}
		if got := plain.CreateToolhelp32Snapshot(); !reflect.DeepEqual(got, wantProcs) {
			t.Errorf("round %d: unhooked snapshot after a hooked one = %v, want %v", round, got, wantProcs)
		}
		if got := plain.GetSystemInfo(); got.NumberOfProcessors != sys.M.HW.NumCores {
			t.Errorf("round %d: GetSystemInfo after an edited payload = %+v", round, got)
		}
	}
	if !reflect.DeepEqual(macs, wantMACs) || !reflect.DeepEqual(procs, wantProcs) {
		t.Error("later calls rewrote lists an earlier call returned")
	}
}

// A handler that calls another API mid-chain gets a frame of its own: the
// outer call's name, arguments and chain position survive the nested call.
func TestNestedCallKeepsOuterFrame(t *testing.T) {
	sys, ctx := newTestSystem(t)
	const key, value = `HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion`, "ProductName"
	twoDeep(t, sys, ctx.P.PID, "GetFileAttributes")

	var lower []string
	table := NewHookTable()
	if err := table.Hook("RegQueryValueEx", func(c *Context, call *Call) Result {
		lower = append(lower, call.Name+":"+call.StrArg(0)+":"+call.StrArg(1))
		return call.Original()
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallHookTable(ctx.P.PID, table); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallHook(ctx.P.PID, "RegQueryValueEx", func(c *Context, call *Call) Result {
		if _, st := c.GetFileAttributes(`C:\Windows\explorer.exe`); !st.OK() {
			t.Errorf("nested GetFileAttributes = %v", st)
		}
		if call.Name != "RegQueryValueEx" || call.StrArg(0) != key || call.StrArg(1) != value || call.Arg(2) != nil {
			t.Errorf("outer frame after nested call: %s(%q, %q, %v)", call.Name, call.StrArg(0), call.StrArg(1), call.Arg(2))
		}
		return call.Original()
	}); err != nil {
		t.Fatal(err)
	}

	v, st := ctx.RegQueryValueEx(key, value)
	if !st.OK() || v.Str == "" {
		t.Errorf("RegQueryValueEx = %+v, %v; want the genuine value", v, st)
	}
	if want := "RegQueryValueEx:" + key + ":" + value; len(lower) != 1 || lower[0] != want {
		t.Errorf("table handler saw %q, want [%q]", lower, want)
	}
	if sys.depth != 0 {
		t.Errorf("frame depth %d after nested dispatch, want 0", sys.depth)
	}
}

// Original called twice runs the rest of the chain, genuine included,
// twice — as its documentation promises.
func TestOriginalTwiceRerunsChain(t *testing.T) {
	sys, ctx := newTestSystem(t)
	lower := 0
	table := NewHookTable()
	if err := table.Hook("Sleep", func(c *Context, call *Call) Result {
		lower++
		return call.Original()
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallHookTable(ctx.P.PID, table); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallHook(ctx.P.PID, "Sleep", func(c *Context, call *Call) Result {
		call.Original()
		return call.Original()
	}); err != nil {
		t.Fatal(err)
	}
	start := ctx.M.Clock.Now()
	ctx.Sleep(time.Second)
	slept := ctx.M.Clock.Now() - start - apiCatalog["Sleep"].cost
	if lower != 2 {
		t.Errorf("table handler ran %d times, want 2", lower)
	}
	if want := 2 * time.Duration(float64(time.Second)*ctx.M.SleepFactor); slept != want {
		t.Errorf("genuine Sleep advanced %v, want %v (two runs)", slept, want)
	}
}

// A panic unwinding a body through a two-deep chain — ExitProcess called
// from a hook, or the observation window closing mid-call — leaves no frame
// behind, and the next process's hooks see their own arguments.
func TestUnwindThroughChainLeavesNoFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		unwind func(c *Context)
	}{
		{"ExitProcess", func(c *Context) { c.ExitProcess(3) }},
		{"BudgetExceeded", func(c *Context) { c.Sleep(time.Hour) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := winsim.NewBareMetalSandbox(1)
			sys := NewSystem(m)
			sys.RegisterProgram(`C:\a.exe`, func(c *Context) int {
				c.GetTickCount()
				return ExitOK
			})
			var seen []string
			sys.RegisterProgram(`C:\b.exe`, func(c *Context) int {
				c.RegOpenKeyEx(`HKLM\SOFTWARE\b`)
				return ExitOK
			})
			a := sys.Launch(`C:\a.exe`, "a.exe", nil)
			table := NewHookTable()
			if err := table.Hook("GetTickCount", func(c *Context, call *Call) Result {
				tc.unwind(c)
				return call.Original()
			}); err != nil {
				t.Fatal(err)
			}
			if err := sys.InstallHookTable(a.PID, table); err != nil {
				t.Fatal(err)
			}
			if err := sys.InstallHook(a.PID, "GetTickCount", func(c *Context, call *Call) Result {
				return call.Original()
			}); err != nil {
				t.Fatal(err)
			}
			sys.Run(time.Minute)
			if sys.depth != 0 {
				t.Fatalf("frame depth %d after the unwind, want 0", sys.depth)
			}

			b := sys.Launch(`C:\b.exe`, "b.exe", nil)
			twoDeep(t, sys, b.PID, "RegOpenKeyEx")
			if err := sys.InstallHook(b.PID, "RegOpenKeyEx", func(c *Context, call *Call) Result {
				seen = append(seen, call.Name+":"+call.StrArg(0))
				return call.Original()
			}); err != nil {
				t.Fatal(err)
			}
			sys.Run(time.Minute)
			if want := `RegOpenKeyEx:HKLM\SOFTWARE\b`; len(seen) != 1 || seen[0] != want {
				t.Errorf("next process's hook saw %q, want [%q]", seen, want)
			}
			if b.State != winsim.ProcessExited || sys.depth != 0 {
				t.Errorf("next process state %v, frame depth %d", b.State, sys.depth)
			}
		})
	}
}
