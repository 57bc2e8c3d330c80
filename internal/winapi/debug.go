package winapi

import (
	"time"

	"scarecrow/internal/winsim"
)

// IsDebuggerPresent reads the PEB BeingDebugged flag through the API —
// the single most common evasion probe in the paper's corpus (815 of the
// 823 self-spawning MalGene samples call it).
func (c *Context) IsDebuggerPresent() bool {
	return c.invoke("IsDebuggerPresent", nil, func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess, Bool: c.P.PEB.BeingDebugged}
	}).Bool
}

// CheckRemoteDebuggerPresent asks the kernel whether a debugger is attached
// to the process.
func (c *Context) CheckRemoteDebuggerPresent() bool {
	return c.invoke("CheckRemoteDebuggerPresent", nil, func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess, Bool: c.M.DebuggerAttachedPIDs[c.P.PID]}
	}).Bool
}

// QueryDebugPort is NtQueryInformationProcess(ProcessDebugPort): non-zero
// when a debugger is attached.
func (c *Context) QueryDebugPort() (uint64, Status) {
	r := c.invoke("NtQueryInformationProcess", []arg{strArg("ProcessDebugPort")}, func(c *Context, call *Call) Result {
		var port uint64
		if c.M.DebuggerAttachedPIDs[c.P.PID] {
			port = 0xdeb9
		}
		return Result{Status: StatusSuccess, Num: port}
	})
	return r.Num, r.Status
}

// OutputDebugString emits a debug string; under a real debugger the call
// behaves differently, but no evaluated profile attaches one.
func (c *Context) OutputDebugString(s string) {
	c.invoke("OutputDebugString", []arg{strArg(s)}, genuineSuccess)
}

// GetTickCount returns the system uptime in milliseconds. Low uptime is a
// sandbox tell (machines reset before every sample); Scarecrow's hook
// returns deceptively small values (Table I: sample ad0d7d0's trigger).
func (c *Context) GetTickCount() uint64 {
	return c.invoke("GetTickCount", nil, func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess, Num: c.M.Clock.TickCount()}
	}).Num
}

// QueryPerformanceCounter returns a high-resolution timestamp in virtual
// nanoseconds.
func (c *Context) QueryPerformanceCounter() uint64 {
	return c.invoke("QueryPerformanceCounter", nil, func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess, Num: uint64(c.M.Clock.Uptime())}
	}).Num
}

// RDTSC executes the rdtsc instruction. It is not an API call: it cannot
// be hooked from user mode, which is why the paper's implementation does
// not handle timing-based checks.
func (c *Context) RDTSC() uint64 {
	return c.M.HW.RDTSC(c.M.Clock)
}

// CPUID executes the cpuid instruction (unhookable, like RDTSC).
func (c *Context) CPUID() winsim.CPUIDResult {
	return c.M.HW.CPUID(c.M.Clock)
}

// SetUnhandledExceptionFilter registers an exception filter; modeled as a
// timing-relevant no-op.
func (c *Context) SetUnhandledExceptionFilter() {
	c.invoke("SetUnhandledExceptionFilter", nil, genuineSuccess)
}

// RaiseException dispatches a software exception through the default
// handling path and returns the virtual time the dispatch consumed.
// Debuggers and shadow-page analysis systems inflate this cost; §II-B(g)
// of the paper has Scarecrow inject a deceptive discrepancy here.
func (c *Context) RaiseException() time.Duration {
	start := c.M.Clock.Now()
	c.invoke("RaiseException", nil, genuineSuccess)
	return c.M.Clock.Now() - start
}

// ReadPEB returns a copy of the process environment block read directly
// from process memory. No API is involved: hooks never see it. This is the
// bypass that defeated Scarecrow for sample cbdda64 in Table I.
func (c *Context) ReadPEB() winsim.PEB {
	c.M.Clock.Advance(memoryReadCost)
	return c.P.PEB
}

// DirectSyscall issues the named Nt* system call through a raw syscall
// stub instead of the ntdll export, skipping every USER-MODE hook — the
// hook-bypass route §VI-A of the paper acknowledges. It still crosses the
// kernel syscall gate, so kernel-level hooks (the paper's future-work
// extension) do intercept it. Only native-layer calls can be issued this
// way; the modeled calls take at most three arguments, and any beyond
// that are ignored.
func (c *Context) DirectSyscall(name string, args ...any) any {
	c.M.Clock.Advance(directSyscallCost)
	var buf [maxArgs]arg
	n := 0
	for ; n < len(args) && n < maxArgs; n++ {
		buf[n] = anyArg(args[n])
	}
	res := c.dispatchSyscall(name, buf[:n], genuineSyscall)
	switch name {
	case "NtQuerySystemInformation":
		return res.Num
	default:
		return res.Status
	}
}

func genuineSyscall(c *Context, call *Call) Result {
	switch call.Name {
	case "NtOpenKeyEx":
		if c.M.Registry.KeyExists(call.StrArg(0)) {
			return Result{Status: StatusSuccess}
		}
		return Result{Status: StatusFileNotFound}
	case "NtQueryAttributesFile":
		if c.M.FS.Exists(call.StrArg(0)) {
			return Result{Status: StatusSuccess}
		}
		return Result{Status: StatusFileNotFound}
	case "NtQuerySystemInformation":
		return c.genuineSystemInformation(call.StrArg(0))
	default:
		return Result{Status: StatusNotSupported}
	}
}
