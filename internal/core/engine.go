package core

import (
	"fmt"
	"strings"
	"time"

	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// HookedAPIs is the set of 29 API entry points scarecrow.dll interposes to
// project the deceptive execution environment (§III-A: "We hook 29 APIs
// that access SCARECROW deceptive resources"). Process-protection hooks
// (TerminateProcess/OpenProcess, §II-B(b)) and the Table III wear-and-tear
// extension install on top of these.
var HookedAPIs = []string{
	"RegOpenKeyEx", "RegQueryValueEx", "NtOpenKeyEx", "NtQueryKey",
	"NtQueryValueKey", "GetAdaptersInfo",
	"CreateFile", "NtCreateFile", "NtQueryAttributesFile",
	"GetFileAttributes", "FindFirstFile", "DeleteFile",
	"GetDiskFreeSpaceEx", "GetSystemInfo", "GlobalMemoryStatusEx",
	"GetComputerName", "GetUserName", "GetModuleFileName",
	"GetModuleHandle", "GetProcAddress", "CreateToolhelp32Snapshot",
	"CreateProcess", "ShellExecuteExW", "IsDebuggerPresent",
	"NtQuerySystemInformation", "GetTickCount", "FindWindow",
	"DnsQuery", "GetCursorPos",
}

// Engine evaluates API calls against the deceptive resource database and
// fabricates analysis-environment answers. One engine serves a deployment;
// per-process installation closes over the target's injection time and the
// deployment session.
type Engine struct {
	DB     *DB
	Config Config

	// WearTear carries the Table III deceptive artifact values used when
	// Config.WearAndTear is enabled.
	WearTear WearTearFakes

	// decoys are the deceptive process entries the Toolhelp snapshot
	// hook plants, with stable fake PIDs, in DB.DeceptiveProcesses order
	// so the planted list (and every verdict that reads it) is the same
	// on every run. decoyImageByPID indexes them for PID lookups.
	decoys          []winapi.ProcessEntry
	decoyImageByPID map[int]string

	// table is the deployment's shared hook table — scarecrow.dll's patch
	// set, built once per (engine, session) and attached to every injected
	// process in O(1) instead of re-installing 35+ hook chains per PID.
	table        *winapi.HookTable
	tableSession *Session

	// injectedAt records each process's injection time, read by the
	// GetTickCount hook so the deceptive tick stream starts near "just
	// booted" for that process. It binds to the process table of the
	// first system the engine injects into.
	injectedAt winsim.PIDMap[time.Duration]
}

// NewEngine builds an engine over a resource database and configuration.
func NewEngine(db *DB, cfg Config) *Engine {
	e := &Engine{
		DB:              db,
		Config:          cfg,
		WearTear:        DefaultWearTearFakes(),
		decoyImageByPID: make(map[int]string),
	}
	for i, img := range db.DeceptiveProcesses() {
		pid := 90000 + 4*i
		e.decoys = append(e.decoys, winapi.ProcessEntry{PID: pid, ParentPID: 4, Image: img})
		e.decoyImageByPID[pid] = img
	}
	return e
}

// InstallHooks plants scarecrow.dll into the process: marks the module
// loaded, rewrites the prologues of the 29 hooked APIs, and wires every
// handler to the deployment session for IPC trigger reporting. The hook
// table is built once per (engine, session) and shared by every injected
// process; per process the injection is one table attach plus the
// injection-time capture the deceptive tick stream starts from.
func (e *Engine) InstallHooks(sys *winapi.System, proc *winsim.Process, session *Session) error {
	if e.table == nil || e.tableSession != session {
		t, err := e.buildHookTable(session)
		if err != nil {
			return err
		}
		e.table = t
		e.tableSession = session
	}
	proc.LoadModule("scarecrow.dll")
	e.injectedAt.Bind(sys.M.Procs)
	e.injectedAt.Set(proc.PID, sys.M.Clock.Now())
	if err := sys.InstallHookTable(proc.PID, e.table); err != nil {
		e.injectedAt.Set(proc.PID, 0)
		return fmt.Errorf("core: installing hook table: %w", err)
	}
	return nil
}

// buildHookTable assembles scarecrow.dll's patch set for one deployment
// session: the 29 deceptive-resource handlers, the process-protection
// hooks, and the configured wear-and-tear and exception-deception
// extensions.
func (e *Engine) buildHookTable(session *Session) (*winapi.HookTable, error) {
	report := func(c *winapi.Context, api string, cat Category, vendor VendorProfile, resource string) {
		session.Report(TriggerReport{
			Time: c.M.Clock.Now(), PID: c.P.PID, API: api,
			Category: cat, Vendor: vendor, Resource: resource,
		})
	}
	allowed := func(v VendorProfile) bool {
		return session.vendorAllowed(v, e.Config.ProfileIsolation)
	}
	enabled := func(cat Category) bool { return e.Config.CategoryEnabled(cat) }

	handlers := map[string]winapi.HookHandler{
		"RegOpenKeyEx": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleRegOpen(c, call, report, allowed)
		},
		"NtOpenKeyEx": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleRegOpen(c, call, report, allowed)
		},
		"RegQueryValueEx": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleRegQueryValue(c, call, report, allowed)
		},
		"NtQueryValueKey": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleRegQueryValue(c, call, report, allowed)
		},
		"NtQueryKey": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			path := call.StrArg(0)
			if vendor, ok := e.DB.MatchRegKey(path); ok && allowed(vendor) {
				report(c, call.Name, CategoryRegistry, vendor, path)
				p := call.Payload()
				p.KeyInfo = winapi.KeyInfo{SubkeyCount: 2, ValueCount: 3}
				return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
			}
			return call.Original()
		},
		"GetAdaptersInfo": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			// Append deceptive virtual adapters to the genuine list: one
			// VirtualBox MAC and one VMware MAC, so MAC-prefix probes of
			// either vendor see their marker.
			genuine := call.Original()
			p := call.Edit(&genuine)
			report(c, call.Name, CategoryHardware, VendorVBox, "adapter-macs")
			if e.Config.ProfileIsolation {
				switch {
				case allowed(VendorVBox):
					p.Adapters = append(p.Adapters, winapi.AdapterInfo{MAC: "08:00:27:de:ad:01"})
				case allowed(VendorVMware):
					p.Adapters = append(p.Adapters, winapi.AdapterInfo{MAC: "00:50:56:de:ad:02"})
				}
				return genuine
			}
			p.Adapters = append(p.Adapters,
				winapi.AdapterInfo{MAC: "08:00:27:de:ad:01"},
				winapi.AdapterInfo{MAC: "00:50:56:de:ad:02"})
			return genuine
		},
		"CreateFile": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleFileProbe(c, call, report, allowed)
		},
		"NtCreateFile": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleFileProbe(c, call, report, allowed)
		},
		"NtQueryAttributesFile": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleFileProbe(c, call, report, allowed)
		},
		"GetFileAttributes": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleFileProbe(c, call, report, allowed)
		},
		"FindFirstFile": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			pattern := call.StrArg(0)
			if vendor, ok := e.DB.MatchFile(strings.TrimSuffix(pattern, `\*`)); ok && allowed(vendor) {
				report(c, call.Name, CategoryFile, vendor, pattern)
				p := call.Payload()
				p.Strs = []string{"analyzer.py", "dump.pcap", "hooks.log"}
				return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
			}
			return call.Original()
		},
		// DeleteFile is hooked pass-through: the rewritten prologue itself
		// is the deception (anti-hooking malware reads it and concludes it
		// is being monitored — Figure 1).
		"DeleteFile": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return call.Original()
		},
		"GetDiskFreeSpaceEx": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			if !e.Config.FakeHardware {
				return call.Original()
			}
			report(c, call.Name, CategoryHardware, VendorGeneric, "disk-size")
			p := call.Payload()
			p.Disk = winapi.DiskSpace{TotalBytes: e.DB.HW.DiskTotalBytes, FreeBytes: e.DB.HW.DiskFreeBytes}
			return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
		},
		"GetSystemInfo": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			if !e.Config.FakeHardware {
				return call.Original()
			}
			report(c, call.Name, CategoryHardware, VendorGeneric, "cpu-cores")
			genuine := call.Original()
			call.Edit(&genuine).SysInfo.NumberOfProcessors = e.DB.HW.NumCores
			return genuine
		},
		"GlobalMemoryStatusEx": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			if !e.Config.FakeHardware {
				return call.Original()
			}
			report(c, call.Name, CategoryHardware, VendorGeneric, "memory-size")
			p := call.Payload()
			p.Mem = winapi.MemoryStatus{TotalPhysBytes: e.DB.HW.RAMBytes, AvailPhysBytes: e.DB.HW.RAMBytes / 2}
			return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
		},
		"GetComputerName": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			report(c, call.Name, CategoryHardware, VendorGeneric, "computer-name")
			return winapi.Result{Status: winapi.StatusSuccess, Str: e.DB.HW.ComputerName}
		},
		"GetUserName": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			report(c, call.Name, CategoryHardware, VendorGeneric, "user-name")
			return winapi.Result{Status: winapi.StatusSuccess, Str: e.DB.HW.UserName}
		},
		"GetModuleFileName": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			report(c, call.Name, CategoryHardware, VendorGeneric, "sample-path")
			return winapi.Result{Status: winapi.StatusSuccess, Str: e.DB.HW.SamplePath}
		},
		"GetModuleHandle": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			name := call.StrArg(0)
			if vendor, ok := e.DB.MatchLibrary(name); ok && allowed(vendor) && enabled(CategoryLibrary) {
				report(c, call.Name, CategoryLibrary, vendor, name)
				return winapi.Result{Status: winapi.StatusSuccess, Num: 0x7ffdec0de000}
			}
			return call.Original()
		},
		"GetProcAddress": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			proc := call.StrArg(1)
			if vendor, ok := e.DB.MatchExport(proc); ok && allowed(vendor) && enabled(CategoryLibrary) {
				report(c, call.Name, CategoryLibrary, vendor, proc)
				return winapi.Result{Status: winapi.StatusSuccess, Num: 0x7ffdec0de100}
			}
			return call.Original()
		},
		"CreateToolhelp32Snapshot": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			genuine := call.Original()
			if !enabled(CategoryProcess) {
				return genuine
			}
			report(c, call.Name, CategoryProcess, VendorDebugger, "process-list")
			p := call.Edit(&genuine)
			p.Entries = append(p.Entries, e.decoys...)
			return genuine
		},
		"CreateProcess": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleSpawn(c, call, session)
		},
		"ShellExecuteExW": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			return e.handleSpawn(c, call, session)
		},
		"IsDebuggerPresent": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			if !enabled(CategoryDebugger) {
				return call.Original()
			}
			report(c, call.Name, CategoryDebugger, VendorDebugger, "PEB.BeingDebugged")
			return winapi.Result{Status: winapi.StatusSuccess, Bool: true}
		},
		"NtQuerySystemInformation": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			// A kernel debugger "is attached" in the deceptive view; other
			// information classes pass through (the wear-and-tear
			// extension wraps this hook for regSize).
			if call.StrArg(0) == winapi.SystemKernelDebuggerInformation {
				report(c, call.Name, CategoryDebugger, VendorDebugger, "KernelDebugger")
				return winapi.Result{Status: winapi.StatusSuccess, Num: 1}
			}
			return call.Original()
		},
		"GetTickCount": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			report(c, call.Name, CategoryHardware, VendorGeneric, "uptime")
			elapsed := c.M.Clock.Now() - e.injectedAt.Get(c.P.PID)
			return winapi.Result{Status: winapi.StatusSuccess,
				Num: e.Config.deceptiveTick(e.DB.HW.TickBaseMillis, elapsed)}
		},
		"FindWindow": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			class, title := call.StrArg(0), call.StrArg(1)
			for _, probe := range []string{class, title} {
				if probe == "" {
					continue
				}
				if vendor, ok := e.DB.MatchWindow(probe); ok && allowed(vendor) && enabled(CategoryWindow) {
					report(c, call.Name, CategoryWindow, vendor, probe)
					p := call.Payload()
					p.Window = winsim.Window{Class: class, Title: title, PID: 90400}
					return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
				}
			}
			return call.Original()
		},
		"DnsQuery": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			if !e.Config.SinkholeNXDomains {
				return call.Original()
			}
			genuine := call.Original()
			if genuine.Status.OK() {
				return genuine
			}
			domain := call.StrArg(0)
			report(c, call.Name, CategoryNetwork, VendorGeneric, domain)
			return winapi.Result{Status: winapi.StatusSuccess, Str: e.DB.SinkholeIP}
		},
		"GetCursorPos": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			report(c, call.Name, CategoryHardware, VendorGeneric, "cursor")
			// A frozen pointer: sandboxes have nobody at the mouse.
			return winapi.Result{Status: winapi.StatusSuccess, Num: winapi.PackCursorPos(512, 384)}
		},
	}

	t := winapi.NewHookTable()
	for _, api := range HookedAPIs {
		h, ok := handlers[api]
		if !ok {
			return nil, fmt.Errorf("core: no handler for hooked API %s", api)
		}
		if err := t.Hook(api, h); err != nil {
			return nil, fmt.Errorf("core: installing %s hook: %w", api, err)
		}
	}

	// Process protection (§II-B(b)): the planted analysis-tool processes
	// resist termination by untrusted software.
	if err := t.Hook("TerminateProcess", func(c *winapi.Context, call *winapi.Call) winapi.Result {
		pid, _ := call.Arg(0).(int)
		if img, ok := e.decoyImageByPID[pid]; ok {
			report(c, call.Name, CategoryProcess, VendorDebugger, img)
			return winapi.Result{Status: winapi.StatusAccessDenied}
		}
		return call.Original()
	}); err != nil {
		return nil, fmt.Errorf("core: installing protection hook: %w", err)
	}
	if err := t.Hook("OpenProcess", func(c *winapi.Context, call *winapi.Call) winapi.Result {
		pid, _ := call.Arg(0).(int)
		if _, ok := e.decoyImageByPID[pid]; ok {
			return winapi.Result{Status: winapi.StatusSuccess}
		}
		return call.Original()
	}); err != nil {
		return nil, fmt.Errorf("core: installing protection hook: %w", err)
	}

	if e.Config.WearAndTear {
		if err := e.hookWearAndTear(t, session); err != nil {
			return nil, fmt.Errorf("core: installing wear-and-tear extension: %w", err)
		}
	}
	if e.Config.TimingDiscrepancy {
		if err := e.hookExceptionDeception(t, session); err != nil {
			return nil, fmt.Errorf("core: installing exception deception: %w", err)
		}
	}
	return t, nil
}

func (e *Engine) handleRegOpen(c *winapi.Context, call *winapi.Call,
	report func(*winapi.Context, string, Category, VendorProfile, string),
	allowed func(VendorProfile) bool) winapi.Result {
	if !e.Config.CategoryEnabled(CategoryRegistry) {
		return call.Original()
	}
	path := call.StrArg(0)
	if vendor, ok := e.DB.MatchRegKey(path); ok && allowed(vendor) {
		report(c, call.Name, CategoryRegistry, vendor, path)
		return winapi.Result{Status: winapi.StatusSuccess}
	}
	return call.Original()
}

func (e *Engine) handleRegQueryValue(c *winapi.Context, call *winapi.Call,
	report func(*winapi.Context, string, Category, VendorProfile, string),
	allowed func(VendorProfile) bool) winapi.Result {
	if !e.Config.CategoryEnabled(CategoryRegistry) {
		return call.Original()
	}
	key, name := call.StrArg(0), call.StrArg(1)
	if fake, vendor, ok := e.DB.MatchRegValue(key, name); ok && allowed(vendor) {
		report(c, call.Name, CategoryRegistry, vendor, key+`\`+name)
		p := call.Payload()
		p.Value = winsim.StringValue(fake)
		return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
	}
	if vendor, ok := e.DB.MatchRegKey(key); ok && allowed(vendor) {
		report(c, call.Name, CategoryRegistry, vendor, key+`\`+name)
		p := call.Payload()
		p.Value = winsim.StringValue("1")
		return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
	}
	return call.Original()
}

func (e *Engine) handleFileProbe(c *winapi.Context, call *winapi.Call,
	report func(*winapi.Context, string, Category, VendorProfile, string),
	allowed func(VendorProfile) bool) winapi.Result {
	if !e.Config.CategoryEnabled(CategoryFile) {
		return call.Original()
	}
	path := call.StrArg(0)
	if vendor, ok := e.DB.MatchFile(path); ok && allowed(vendor) {
		report(c, call.Name, CategoryFile, vendor, path)
		p := call.Payload()
		p.FileInfo = winsim.FileInfo{Path: path, Kind: winsim.FileRegular, Size: 200 << 10}
		return winapi.Result{Status: winapi.StatusSuccess, Ext: p}
	}
	return call.Original()
}

// handleSpawn passes process creation through and feeds the mitigation
// ledger (§VI-C): self-spawning loops raise an alarm at the configured
// threshold, and the kill policy terminates the forking process.
func (e *Engine) handleSpawn(c *winapi.Context, call *winapi.Call, session *Session) winapi.Result {
	genuine := call.Original()
	image := strings.ToLower(baseName(call.StrArg(0)))
	count := session.NoteSpawn(image)
	if count == e.Config.SpawnAlarmThreshold {
		session.Alert(fmt.Sprintf("self-spawn loop: %s created %d times by pid %d",
			image, count, c.P.PID))
		if e.Config.Mitigation == MitigationKillOnFork {
			if genuine.Ext != nil && genuine.Ext.Proc != nil {
				c.M.ExitProcess(genuine.Ext.Proc, 137)
			}
			// Unwind the forking process like ExitProcess would.
			c.ExitProcess(137)
		}
	}
	return genuine
}

func baseName(path string) string {
	if i := strings.LastIndexAny(path, `\/`); i >= 0 {
		return path[i+1:]
	}
	return path
}
