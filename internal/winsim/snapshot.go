package winsim

// Deep-Freeze snapshot pool. The paper's cluster re-images every bare-metal
// machine with Deep Freeze before each sample; the simulation used to model
// that reset by rebuilding the whole Machine (profile population, registry,
// filesystem, wear-and-tear forest) from scratch for every run — the
// dominant cost of a corpus sweep. Snapshot captures the complete mutable
// state of a machine once; Clone and Restore then produce machines that are
// observationally identical to a fresh build at a fraction of the cost.
//
// Sharing contract (copy-on-write): a clone shares data that is never
// mutated in place after creation, plus the big state trees, which are
// shared COW with explicit ownership discipline —
//
//   - *fsNode values and the FileSystem node map (mutators call ownNodes
//     before writing; see filesystem.go),
//   - Registry *Key nodes (mutators path-copy via mutableWalk; clones
//     drop the owned set so every key starts shared; see registry.go),
//   - Process Modules slices (clone caps the copy's slice at its length,
//     so a later append on either side reallocates instead of writing
//     into the shared array),
//   - Value.Data byte slices (BinaryValue copies at construction; nothing
//     writes into a stored slice),
//   - strings (immutable in Go).
//
// Everything else — processes, volumes, windows, hardware, network tables,
// event log, mouse, clock, tracer, fault injector, RNG state — is copied,
// so no write on one machine can ever be observed on another. The
// mechanical value/slice/map copies are generated into snapshot_gen.go by
// internal/winsim/gen (go generate ./internal/winsim); only the types with
// sharing policy keep handwritten clones below. The differential harness
// in internal/analysis and FuzzSnapshotRestore enforce the contract
// behaviourally; TestSnapshotCoversEveryField enforces it structurally (a
// new field breaks the build until snapshotSpec and clone() account for
// it).

//go:generate go run ./gen

import (
	"math/rand"
)

// rngSource is the machine's deterministic random source: a SplitMix64
// generator whose entire state is one word, so Snapshot can capture the
// exact RNG position and Restore can resume it mid-stream (math/rand's
// stock source is opaque and unserializable). It implements rand.Source64.
type rngSource struct {
	state uint64
}

// newRNGSource returns a source seeded like rand.NewSource: the same seed
// always yields the same stream.
func newRNGSource(seed int64) *rngSource {
	return &rngSource{state: uint64(seed)}
}

// Seed resets the source to the canonical stream for seed.
func (s *rngSource) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 advances the SplitMix64 state and returns the next output.
func (s *rngSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative 63-bit value, as rand.Source requires.
func (s *rngSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Snapshot is a frozen deep copy of one machine's complete observable
// state: registry, filesystem, process table, windows, event log, hardware,
// network, mouse, clock, trace stream, RNG position, and fault-plan arming.
// A snapshot is immutable after capture and safe for concurrent Clone calls
// from many goroutines (the lab's template pool does exactly that).
type Snapshot struct {
	m *Machine
}

// Snapshot captures the machine's current state. The machine remains live;
// later mutations are not reflected in the snapshot.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{m: m.clone()}
}

// Clone builds a new machine from the snapshot with a fresh RNG stream for
// the given seed. Cloning a snapshot of a freshly built profile machine is
// observationally identical to NewProfileMachine(profile, seed) — the O(1)
// Deep Freeze reset — because profile construction never consumes the RNG.
func (s *Snapshot) Clone(seed int64) *Machine {
	nm := s.m.clone()
	nm.rngSrc.Seed(seed)
	return nm
}

// Restore rewinds the machine to the snapshot point, including the RNG
// position and the trace stream, so execution after Restore replays exactly
// as execution after the original Snapshot call. Callers holding references
// to the machine's previous subsystems (e.g. a winapi.System built before
// Restore) must rebuild them: Restore swaps in fresh deep copies.
func (m *Machine) Restore(s *Snapshot) {
	*m = *s.m.clone()
}

// clone deep-copies the machine. Every field of Machine (and of each state
// type it reaches) must be handled here and listed in snapshotSpec;
// TestSnapshotCoversEveryField fails the build otherwise.
func (m *Machine) clone() *Machine {
	nm := &Machine{
		Profile:               m.Profile,
		OS:                    m.OS,
		SleepFactor:           m.SleepFactor,
		RegistryQuotaUsed:     m.RegistryQuotaUsed,
		KernelDebuggerPresent: m.KernelDebuggerPresent,
	}
	if m.MonitorHookedAPIs != nil {
		nm.MonitorHookedAPIs = append([]string(nil), m.MonitorHookedAPIs...)
	}
	nm.Faults = m.Faults.cloneGen()
	nm.Clock = m.Clock.cloneGen()
	nm.Registry = m.Registry.clone(nm.Faults)
	nm.FS = m.FS.clone(nm.Faults)
	nm.Procs = m.Procs.clone(nm.Faults)
	nm.Windows = m.Windows.cloneGen()
	nm.HW = m.HW.cloneGen()
	nm.Net = m.Net.cloneGen()
	nm.EventLog = m.EventLog.cloneGen()
	nm.Mouse = m.Mouse.cloneGen()
	nm.Tracer = m.Tracer.Clone()
	nm.DebuggerAttachedPIDs = make(map[int]bool, len(m.DebuggerAttachedPIDs))
	for pid, v := range m.DebuggerAttachedPIDs {
		nm.DebuggerAttachedPIDs[pid] = v
	}
	if m.rngSrc != nil {
		nm.rngSrc = m.rngSrc.cloneGen()
	} else {
		nm.rngSrc = newRNGSource(0)
	}
	nm.rng = rand.New(nm.rngSrc)
	return nm
}

// clone shares the registry tree copy-on-write and rewires fault injection
// to the cloning machine's injector. Only the four-entry hive map is
// copied; the source's owned set is dropped so both sides treat every key
// as shared and path-copy before mutating (see Registry). The nil-guard
// keeps concurrent Clone calls on a snapshot write-free: a machine that
// was itself produced by clone() already has a nil owned set.
func (r *Registry) clone(fi *FaultInjector) *Registry {
	if r.owned != nil {
		r.owned = nil
	}
	nr := &Registry{hives: make(map[string]*Key, len(r.hives)), faults: fi}
	for name, hive := range r.hives {
		nr.hives[name] = hive
	}
	return nr
}

// clone shares the file-system node map copy-on-write: both sides are
// marked shared and the first mutation on either side copies the map (see
// ownNodes). The write is guarded so concurrent Clone calls on an
// already-shared snapshot machine stay write-free. Volumes are mutated in
// place (WriteFile charges FreeBytes) and therefore deep-copied.
func (fs *FileSystem) clone(fi *FaultInjector) *FileSystem {
	if !fs.shared {
		fs.shared = true
	}
	nf := &FileSystem{
		nodes:   fs.nodes,
		volumes: make(map[byte]*Volume, len(fs.volumes)),
		faults:  fi,
		shared:  true,
	}
	for letter, v := range fs.volumes {
		vol := *v
		nf.volumes[letter] = &vol
	}
	return nf
}

// clone copies the process table. Process objects are mutated in place
// throughout a run (state, PEB, modules), so every one is copied — into a
// single arena allocation rather than one allocation per process. Modules
// slices are shared with the source but capped at their current length:
// an append on either side then reallocates instead of writing into the
// shared backing array (elements below the cap are never mutated).
func (t *ProcessTable) clone(fi *FaultInjector) *ProcessTable {
	nt := &ProcessTable{procs: make([]*Process, len(t.procs)), faults: fi}
	arena := make([]Process, len(t.procs))
	for i, p := range t.procs {
		arena[i] = *p
		arena[i].Modules = p.Modules[:len(p.Modules):len(p.Modules)]
		nt.procs[i] = &arena[i]
	}
	return nt
}

// snapshotSpec names, for every state type the snapshot reaches, the exact
// fields clone() accounts for. TestSnapshotCoversEveryField reflects over
// the real types and fails on any mismatch in either direction, so adding a
// field to the machine without snapshot support breaks the build here — not
// a sweep three PRs later.
var snapshotSpec = map[string][]string{
	"Machine": {
		"Profile", "OS", "Clock", "Registry", "FS", "Procs", "Windows",
		"HW", "Net", "EventLog", "Mouse", "Tracer", "SleepFactor",
		"RegistryQuotaUsed", "DebuggerAttachedPIDs", "KernelDebuggerPresent",
		"MonitorHookedAPIs", "Faults", "rng", "rngSrc",
	},
	"OSVersion":     {"Major", "Minor", "Build"},
	"Clock":         {"now", "bootOffset", "deadline", "cyclesPerNano"},
	"Registry":      {"hives", "faults", "owned"},
	"Key":           {"name", "subkeys", "values"},
	"kvPair":        {"name", "value"},
	"Value":         {"Type", "Str", "Num", "Data"},
	"FileSystem":    {"nodes", "volumes", "faults", "shared"},
	"fsNode":        {"info", "data"},
	"FileInfo":      {"Path", "Kind", "Size"},
	"Volume":        {"Letter", "TotalBytes", "FreeBytes", "SerialNumber"},
	"ProcessTable":  {"procs", "faults"},
	"Process":       {"PID", "ParentPID", "Image", "CommandLine", "PEB", "Modules", "State", "ExitCode", "StartTime", "ExitTime", "Protected", "SpawnDepth"},
	"PEB":           {"BeingDebugged", "NumberOfProcessors", "ImageBaseAddress"},
	"WindowManager": {"windows"},
	"Window":        {"Class", "Title", "PID"},
	"Hardware": {
		"NumCores", "RAMBytes", "CPUVendor", "CPUBrand", "HypervisorPresent",
		"HypervisorVendor", "CPUIDCycles", "RDTSCCycles", "MACs", "DiskModel",
		"BIOSSerial", "SystemManufacturer", "SystemProductName",
		"ComputerName", "UserName",
	},
	"Network":       {"records", "SinkholeIP", "reachable", "Cache"},
	"DNSCache":      {"order", "present"},
	"EventLog":      {"count", "sources"},
	"Mouse":         {"Active", "baseX", "baseY"},
	"FaultInjector": {"plan", "fileOps", "regOps", "procOps"},
	"FaultPlan":     {"FailFileOp", "FailRegOp", "FailProcOp", "FailInjection"},
	"rngSource":     {"state"},
}
