package winapi

import (
	"time"

	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// ProcessEntry is one row of a Toolhelp process snapshot.
type ProcessEntry struct {
	PID       int
	ParentPID int
	Image     string // base name, lowercased
}

// CreateProcess launches a new process from the given image. The child is
// queued on the scheduler and runs after the current body yields. The
// returned process handle is the child's kernel object.
func (c *Context) CreateProcess(image, cmdline string) (*winsim.Process, Status) {
	r := c.invoke("CreateProcess", []arg{strArg(image), strArg(cmdline)}, genuineLaunch)
	return r.payload().Proc, r.Status
}

// ShellExecuteExW launches a process through the shell; behaviourally
// identical to CreateProcess here, but a separate hookable entry point
// (stock Cuckoo hooks it — Table II's lone Hook trigger without Scarecrow).
func (c *Context) ShellExecuteExW(image, cmdline string) (*winsim.Process, Status) {
	r := c.invoke("ShellExecuteExW", []arg{strArg(image), strArg(cmdline)}, genuineLaunch)
	return r.payload().Proc, r.Status
}

func genuineLaunch(c *Context, call *Call) Result {
	child := c.sys.Launch(call.StrArg(0), call.StrArg(1), c.P)
	p := call.Payload()
	p.Proc = child
	return Result{Status: StatusSuccess, Ext: p}
}

// ExitProcess terminates the calling process; it does not return.
func (c *Context) ExitProcess(code int) {
	c.invoke("ExitProcess", []arg{intArg(code)}, func(c *Context, call *Call) Result {
		panic(exitPanic{code: int(call.num(0))})
	})
	panic(exitPanic{code: code}) // a hook swallowed the exit; force it anyway
}

// TerminateProcess kills another process by PID. Protected processes (the
// deceptive analysis-tool processes Scarecrow plants) refuse termination
// with access denied, as §II-B(b) of the paper requires.
func (c *Context) TerminateProcess(pid int) Status {
	return c.invoke("TerminateProcess", []arg{intArg(pid)}, func(c *Context, call *Call) Result {
		p, ok := c.M.Procs.Get(int(call.num(0)))
		if !ok || p.State == winsim.ProcessExited {
			return Result{Status: StatusInvalidParam}
		}
		if p.Protected {
			return Result{Status: StatusAccessDenied}
		}
		c.M.ExitProcess(p, 1)
		return Result{Status: StatusSuccess}
	}).Status
}

// OpenProcess opens a handle to a process, failing for protected targets.
func (c *Context) OpenProcess(pid int) Status {
	return c.invoke("OpenProcess", []arg{intArg(pid)}, func(c *Context, call *Call) Result {
		p, ok := c.M.Procs.Get(int(call.num(0)))
		if !ok {
			return Result{Status: StatusInvalidParam}
		}
		if p.Protected {
			return Result{Status: StatusAccessDenied}
		}
		return Result{Status: StatusSuccess}
	}).Status
}

// CreateToolhelp32Snapshot returns the process list (the
// Process32First/Next sweep collapsed into one call).
func (c *Context) CreateToolhelp32Snapshot() []ProcessEntry {
	return c.invoke("CreateToolhelp32Snapshot", nil, func(c *Context, call *Call) Result {
		running := c.M.Procs.Running()
		entries := make([]ProcessEntry, 0, len(running))
		for _, p := range running {
			entries = append(entries, ProcessEntry{
				PID: p.PID, ParentPID: p.ParentPID, Image: p.ImageBase(),
			})
		}
		p := call.Payload()
		p.Entries = entries
		return Result{Status: StatusSuccess, Ext: p}
	}).payload().Entries
}

// GetCurrentProcessId returns the caller's PID.
func (c *Context) GetCurrentProcessId() int {
	c.invoke("GetCurrentProcessId", nil, genuineSuccess)
	return c.P.PID
}

// GetModuleFileName returns the full path of the process image.
func (c *Context) GetModuleFileName() string {
	return c.invoke("GetModuleFileName", nil, func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess, Str: c.P.Image}
	}).Str
}

// GetCommandLine returns the command line of the process.
func (c *Context) GetCommandLine() string {
	return c.invoke("GetCommandLine", nil, func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess, Str: c.P.CommandLine}
	}).Str
}

// ParentProcessImage resolves the parent process's image base name via
// NtQueryInformationProcess, the check malware uses to spot analysis
// daemons as parents (the Scarecrow controller deliberately mimics this).
func (c *Context) ParentProcessImage() string {
	return c.invoke("NtQueryInformationProcess", []arg{strArg("ParentProcess")}, func(c *Context, call *Call) Result {
		parent, ok := c.M.Procs.Get(c.P.ParentPID)
		if !ok {
			return Result{Status: StatusNotFound}
		}
		return Result{Status: StatusSuccess, Str: parent.ImageBase()}
	}).Str
}

// Sleep suspends the caller for the given duration of virtual time (scaled
// by the machine's sleep factor).
func (c *Context) Sleep(d time.Duration) {
	c.invoke("Sleep", []arg{durArg(d)}, func(c *Context, call *Call) Result {
		c.M.Sleep(time.Duration(call.num(0)))
		return Result{Status: StatusSuccess}
	})
}

// WaitForSingleObject waits on a process handle. Because the scheduler is
// cooperative FIFO, a child cannot complete while its parent blocks; the
// call models the polling wait malware droppers use, advancing time and
// reporting whether the target has already exited.
func (c *Context) WaitForSingleObject(p *winsim.Process, timeout time.Duration) Status {
	return c.invoke("WaitForSingleObject", []arg{refArg(p), durArg(timeout)}, func(c *Context, call *Call) Result {
		if p, _ := call.Arg(0).(*winsim.Process); p != nil && p.State == winsim.ProcessExited {
			return Result{Status: StatusSuccess}
		}
		c.M.Sleep(time.Duration(call.num(1)))
		return Result{Status: StatusTimeout}
	}).Status
}

// InjectIntoProcess models cross-process code injection (WriteProcessMemory
// + CreateRemoteThread collapsed into one observable operation). Injection
// into protected processes fails.
func (c *Context) InjectIntoProcess(pid int) Status {
	p, ok := c.M.Procs.Get(pid)
	success := ok && p.State != winsim.ProcessExited && !p.Protected
	target := ""
	if ok {
		target = p.Image
	}
	c.M.Record(trace.Event{
		Kind: trace.KindProcessInject, PID: c.P.PID, Image: c.P.Image,
		Target: target, Success: success,
	})
	c.M.Clock.Advance(2 * time.Millisecond)
	if !success {
		return StatusAccessDenied
	}
	return StatusSuccess
}
