package winapi

import (
	"testing"

	"scarecrow/internal/winsim"
)

func newTestSystem(t *testing.T) (*System, *Context) {
	t.Helper()
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	p := sys.Launch(`C:\Users\john\target.exe`, "target.exe", nil)
	return sys, sys.Context(p)
}

func TestPrologueIntactByDefault(t *testing.T) {
	_, ctx := newTestSystem(t)
	if !ctx.PrologueIntact("DeleteFile") {
		t.Error("unhooked function should have the hot-patch prologue")
	}
	b := ctx.ReadFunctionPrologue("DeleteFile")
	if b[0] != 0x8B || b[1] != 0xFF {
		t.Errorf("prologue = % x", b)
	}
}

func TestInstallHookPatchesPrologue(t *testing.T) {
	sys, ctx := newTestSystem(t)
	if err := sys.InstallHook(ctx.P.PID, "DeleteFile", func(c *Context, call *Call) Result {
		return call.Original()
	}); err != nil {
		t.Fatal(err)
	}
	if ctx.PrologueIntact("DeleteFile") {
		t.Error("hooked function should expose a JMP prologue")
	}
	if b := ctx.ReadFunctionPrologue("DeleteFile"); b[0] != 0xE9 {
		t.Errorf("prologue = % x, want JMP (E9)", b)
	}
	// Other processes remain unpatched: hooks are per-process (DLL
	// injection scope).
	other := sys.Launch(`C:\other.exe`, "other.exe", nil)
	if !sys.Context(other).PrologueIntact("DeleteFile") {
		t.Error("hook leaked into another process")
	}
}

func TestInstallHookRejectsUnknownAndUnhookable(t *testing.T) {
	sys, ctx := newTestSystem(t)
	if err := sys.InstallHook(ctx.P.PID, "NoSuchAPI", nil); err == nil {
		t.Error("unknown API accepted")
	}
	if err := sys.InstallHook(ctx.P.PID, "WMIQuery", nil); err == nil {
		t.Error("COM-transport API must not be hookable")
	}
}

func TestHookManipulatesResult(t *testing.T) {
	sys, ctx := newTestSystem(t)
	const key = `HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`
	if st := ctx.RegOpenKeyEx(key); st.OK() {
		t.Fatal("key should not exist on bare metal")
	}
	err := sys.InstallHook(ctx.P.PID, "RegOpenKeyEx", func(c *Context, call *Call) Result {
		if call.StrArg(0) == key {
			return Result{Status: StatusSuccess}
		}
		return call.Original()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ctx.RegOpenKeyEx(key); !st.OK() {
		t.Error("hook did not fabricate success")
	}
	// Unrelated keys still hit the genuine registry.
	if st := ctx.RegOpenKeyEx(`HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion`); !st.OK() {
		t.Error("pass-through broken")
	}
	if st := ctx.RegOpenKeyEx(`HKLM\SOFTWARE\Nothing`); st.OK() {
		t.Error("missing key fabricated unexpectedly")
	}
}

func TestHookChainOrderOutermostLast(t *testing.T) {
	sys, ctx := newTestSystem(t)
	var order []string
	mk := func(tag string) HookHandler {
		return func(c *Context, call *Call) Result {
			order = append(order, tag)
			return call.Original()
		}
	}
	if err := sys.InstallHook(ctx.P.PID, "GetTickCount", mk("first")); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallHook(ctx.P.PID, "GetTickCount", mk("second")); err != nil {
		t.Fatal(err)
	}
	ctx.GetTickCount()
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Errorf("chain order = %v, want [second first]", order)
	}
}

func TestMonitorHookedAPIsPatchEveryProcess(t *testing.T) {
	m := winsim.NewCuckooSandbox(1, false)
	sys := NewSystem(m)
	p := sys.Launch(`C:\sample.exe`, "sample.exe", nil)
	ctx := sys.Context(p)
	if ctx.PrologueIntact("ShellExecuteExW") {
		t.Error("Cuckoo monitor hook not visible")
	}
	if !ctx.PrologueIntact("DeleteFile") {
		t.Error("unmonitored API patched")
	}
	// The monitor hook passes calls through unchanged.
	if _, st := ctx.ShellExecuteExW(`C:\Windows\System32\notepad.exe`, "notepad"); !st.OK() {
		t.Error("monitor hook broke the call")
	}
}

func TestHookedPrologueDeterministic(t *testing.T) {
	a := hookedPrologue("RegOpenKeyEx")
	b := hookedPrologue("RegOpenKeyEx")
	c := hookedPrologue("DeleteFile")
	if string(a) != string(b) {
		t.Error("prologue not deterministic")
	}
	if string(a) == string(c) {
		t.Error("different APIs share a displacement")
	}
}
