package winsim

import (
	"math/rand"
	"strconv"
	"time"

	"scarecrow/internal/trace"
)

// OSVersion identifies the Windows release the machine models. The
// evaluation runs on Windows 7 (6.1), which is why version-gated APIs such
// as IsNativeVhdBoot are unavailable (the paper notes this as a missed
// Pafish feature).
type OSVersion struct {
	Major int
	Minor int
	Build int
}

// Windows7 is the OS version used throughout the paper's evaluation.
var Windows7 = OSVersion{Major: 6, Minor: 1, Build: 7601}

// AtLeast reports whether the version is >= the given major.minor.
func (v OSVersion) AtLeast(major, minor int) bool {
	if v.Major != major {
		return v.Major > major
	}
	return v.Minor >= minor
}

// Machine is one simulated Windows host: the complete observable state an
// execution environment exposes to the programs running on it. A fresh
// Machine per run models the paper's Deep Freeze reset between samples.
type Machine struct {
	// Profile names the environment profile this machine was built from.
	Profile string
	// OS is the modeled Windows version.
	OS OSVersion

	Clock    *Clock
	Registry *Registry
	FS       *FileSystem
	Procs    *ProcessTable
	Windows  *WindowManager
	HW       *Hardware
	Net      *Network
	EventLog *EventLog
	Mouse    *Mouse

	// Tracer records the kernel activity stream for this machine.
	Tracer *trace.Recorder

	// SleepFactor scales requested sleep durations; analysis environments
	// that skip sleeps use values near zero.
	SleepFactor float64

	// RegistryQuotaUsed is the value NtQuerySystemInformation reports for
	// SystemRegistryQuotaInformation; a wear-and-tear artifact (regSize).
	RegistryQuotaUsed uint64

	// DebuggerAttachedPIDs marks processes with a real kernel debugger
	// attached (none, in every profile the paper evaluates).
	DebuggerAttachedPIDs map[int]bool

	// KernelDebuggerPresent marks machines running under a kernel
	// debugger (analysis rigs only); NtQuerySystemInformation reports it.
	KernelDebuggerPresent bool

	// MonitorHookedAPIs lists APIs the environment's own analysis monitor
	// (e.g. the Cuckoo in-guest monitor) inline-hooks in every analyzed
	// process; anti-hooking checks observe their patched prologues even
	// without Scarecrow.
	MonitorHookedAPIs []string

	// Faults, when armed via ArmFaults, injects deterministic failures
	// into file, registry, process, and injection operations (faults.go).
	// Nil on every machine that has not been armed.
	Faults *FaultInjector

	// rng draws from rngSrc; both point at the same underlying state.
	// rngSrc is kept alongside so Snapshot can capture the exact RNG
	// position (math/rand sources are opaque; see snapshot.go).
	rng    *rand.Rand
	rngSrc *rngSource
}

// NewMachine builds an empty machine with the given profile name and seed.
// Profiles (see profiles.go) populate it.
func NewMachine(profile string, seed int64) *Machine {
	src := newRNGSource(seed)
	return &Machine{
		Profile:              profile,
		OS:                   Windows7,
		Clock:                NewClock(30*time.Minute, 2.6),
		Registry:             NewRegistry(),
		FS:                   NewFileSystem(),
		Procs:                NewProcessTable(),
		Windows:              NewWindowManager(),
		HW:                   &Hardware{},
		Net:                  NewNetwork(),
		EventLog:             NewEventLog(),
		Mouse:                NewMouse(false, 512, 384),
		Tracer:               trace.NewRecorder(),
		SleepFactor:          1.0,
		DebuggerAttachedPIDs: make(map[int]bool),
		rng:                  rand.New(src),
		rngSrc:               src,
	}
}

// Rand exposes the machine's deterministic random source.
func (m *Machine) Rand() *rand.Rand { return m.rng }

// Sleep advances virtual time by the requested duration scaled by the
// machine's sleep factor.
func (m *Machine) Sleep(d time.Duration) {
	m.Clock.Advance(time.Duration(float64(d) * m.SleepFactor))
}

// Record emits a kernel trace event stamped with the current virtual time.
func (m *Machine) Record(e trace.Event) {
	e.Time = m.Clock.Now()
	m.Tracer.Record(e)
}

// SpawnProcess creates a process object, emits the kernel trace event, and
// returns the new process. The caller (the winapi scheduler) is responsible
// for arranging execution of the image's program body.
func (m *Machine) SpawnProcess(image, cmdline string, parent *Process) *Process {
	parentPID := 0
	depth := 0
	parentImage := ""
	if parent != nil {
		parentPID = parent.PID
		depth = parent.SpawnDepth + 1
		parentImage = parent.Image
	}
	p := m.Procs.Create(image, cmdline, parentPID, m.Clock.Now())
	p.SpawnDepth = depth
	p.PEB.NumberOfProcessors = m.HW.NumCores
	p.PEB.BeingDebugged = m.DebuggerAttachedPIDs[p.PID]
	p.PEB.ImageBaseAddress = 0x400000
	m.Record(trace.Event{
		Kind: trace.KindProcessCreate, PID: parentPID, Image: parentImage,
		Target: image, Success: true,
	})
	return p
}

// ExitProcess marks a process exited, emits the trace event, and removes
// its windows.
func (m *Machine) ExitProcess(p *Process, code int) {
	if p.State == ProcessExited {
		return
	}
	p.State = ProcessExited
	p.ExitCode = code
	p.ExitTime = m.Clock.Now()
	m.Windows.RemoveByPID(p.PID)
	m.Record(trace.Event{
		Kind: trace.KindProcessExit, PID: p.PID, Image: p.Image,
		Target: p.Image, Detail: exitDetail(code), Success: true,
	})
}

// exitDetail renders an exit event's Detail. The codes processes exit
// with almost always (0, 1, and 137 for a mitigation kill) are constants,
// so an exit allocates nothing.
func exitDetail(code int) string {
	switch code {
	case 0:
		return "code=0"
	case 1:
		return "code=1"
	case 137:
		return "code=137"
	}
	return "code=" + strconv.Itoa(code)
}
