package winsim

import (
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// ProcessState describes where a process is in its lifecycle at the end of
// an observation window.
type ProcessState int

// Process lifecycle states.
const (
	// ProcessPending has been created but not yet scheduled.
	ProcessPending ProcessState = iota + 1
	// ProcessRunning is executing (or was still executing when the
	// observation window closed).
	ProcessRunning
	// ProcessExited terminated voluntarily or was killed.
	ProcessExited
)

// PEB models the fields of the Process Environment Block that evasive
// malware reads directly from memory, bypassing any user-level API hooks.
// The paper's one deactivation failure (sample cbdda64...) read
// NumberOfProcessors out of the PEB instead of calling an API, which
// user-level hooking cannot intercept; the model preserves exactly that
// blind spot.
type PEB struct {
	// BeingDebugged is the byte IsDebuggerPresent reads. It reflects the
	// machine's real debugger state, never Scarecrow's deception.
	BeingDebugged bool
	// NumberOfProcessors mirrors the hardware core count.
	NumberOfProcessors int
	// ImageBaseAddress is the load address of the main module.
	ImageBaseAddress uint64
}

// Process is a kernel process object.
type Process struct {
	PID       int
	ParentPID int
	// Image is the full path of the executable.
	Image string
	// CommandLine is the command line the process was created with.
	CommandLine string
	// PEB is the process environment block, readable without any API call.
	PEB PEB
	// Modules is the list of loaded module (DLL) base names, in load order.
	Modules []string
	// State, ExitCode, StartTime, and ExitTime describe lifecycle.
	State     ProcessState
	ExitCode  int
	StartTime time.Duration
	ExitTime  time.Duration
	// Protected marks processes that may not be terminated by untrusted
	// software (the paper protects its 24 deceptive analysis-tool
	// processes from being killed).
	Protected bool
	// SpawnDepth counts CreateProcess generations from the root sample;
	// used by the harness to detect self-spawning loops.
	SpawnDepth int
}

// ImageBase returns the lowercased base name of the process image.
func (p *Process) ImageBase() string {
	img := p.Image
	if i := strings.LastIndexAny(img, `\/`); i >= 0 {
		img = img[i+1:]
	}
	return strings.ToLower(img)
}

// HasModule reports whether a module with the given base name is loaded
// (case-insensitive: the names are equal under strings.ToLower).
func (p *Process) HasModule(name string) bool {
	for _, m := range p.Modules {
		if equalLower(m, name) {
			return true
		}
	}
	return false
}

// equalLower reports strings.ToLower(a) == strings.ToLower(b). It folds
// ASCII bytes in place and lowers only from the first non-ASCII byte on,
// so ASCII names compare without allocating.
func equalLower(a, b string) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			// ToLower maps rune by rune, so the equal ASCII prefix can
			// be dropped.
			return strings.ToLower(a[i:]) == strings.ToLower(b[i:])
		}
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	// One name is a prefix of the other; a non-empty tail never lowers
	// to "".
	return len(a) == len(b)
}

// LoadModule appends a module if not already present and reports whether it
// was newly loaded.
func (p *Process) LoadModule(name string) bool {
	if p.HasModule(name) {
		return false
	}
	p.Modules = append(p.Modules, name)
	return true
}

// ProcessTable is the machine's process list. PIDs start at 4 (the System
// process) and advance by 4 in creation order, matching Windows
// allocation granularity, so the process with PID p sits at procs[p/4-1]
// (see slot).
type ProcessTable struct {
	procs  []*Process     // creation order
	faults *FaultInjector // nil unless the machine is armed (faults.go)
}

// NewProcessTable returns an empty table.
func NewProcessTable() *ProcessTable {
	return &ProcessTable{}
}

// slot returns the dense index (pid/4-1) of a PID this table minted; ok is
// false for every PID it never minted.
func (t *ProcessTable) slot(pid int) (i int, ok bool) {
	if pid <= 0 || pid%4 != 0 || pid/4 > len(t.procs) {
		return 0, false
	}
	return pid/4 - 1, true
}

// Create registers a new process and returns it.
func (t *ProcessTable) Create(image, cmdline string, parentPID int, start time.Duration) *Process {
	t.faults.procOp()
	p := &Process{
		PID:         4 * (len(t.procs) + 1),
		ParentPID:   parentPID,
		Image:       image,
		CommandLine: cmdline,
		State:       ProcessPending,
		StartTime:   start,
		// Room for one more module: an injected process loads
		// scarecrow.dll next, and that load must not reallocate.
		Modules: append(make([]string, 0, 3), "ntdll.dll", "kernel32.dll"),
	}
	t.procs = append(t.procs, p)
	return p
}

// Get returns the process with the given PID.
func (t *ProcessTable) Get(pid int) (*Process, bool) {
	i, ok := t.slot(pid)
	if !ok {
		return nil, false
	}
	return t.procs[i], true
}

// All returns all processes (including exited ones) in creation order.
func (t *ProcessTable) All() []*Process {
	return append([]*Process(nil), t.procs...)
}

// Running returns the processes not yet exited, in creation order.
func (t *ProcessTable) Running() []*Process {
	var out []*Process
	for _, p := range t.procs {
		if p.State != ProcessExited {
			out = append(out, p)
		}
	}
	return out
}

// FindByImage returns the running processes whose image base name matches
// (case-insensitive).
func (t *ProcessTable) FindByImage(base string) []*Process {
	want := strings.ToLower(base)
	var out []*Process
	for _, p := range t.Running() {
		if p.ImageBase() == want {
			out = append(out, p)
		}
	}
	return out
}

// ImageNames returns the sorted distinct image base names of running
// processes, which is what a Toolhelp process snapshot exposes to malware.
func (t *ProcessTable) ImageNames() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, p := range t.Running() {
		name := p.ImageBase()
		if _, ok := seen[name]; ok {
			continue
		}
		seen[name] = struct{}{}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
