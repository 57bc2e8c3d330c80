package winapi

import (
	"strings"

	"scarecrow/internal/trace"
)

// GetModuleHandle reports whether a module is loaded in the process,
// returning a non-zero pseudo-address when present. Probing for
// SbieDll.dll, dbghelp.dll, or sandbox monitor DLLs is a standard evasion
// check.
func (c *Context) GetModuleHandle(name string) (uint64, Status) {
	r := c.invoke("GetModuleHandle", []arg{strArg(name)}, func(c *Context, call *Call) Result {
		name := call.StrArg(0)
		if !c.P.HasModule(name) {
			return Result{Status: StatusNotFound}
		}
		return Result{Status: StatusSuccess, Num: moduleAddr(name)}
	})
	return r.Num, r.Status
}

// LoadLibrary loads a DLL into the process when its file exists on disk (or
// it is a known system DLL), emitting the ImageLoad kernel event.
func (c *Context) LoadLibrary(name string) (uint64, Status) {
	r := c.invoke("LoadLibrary", []arg{strArg(name)}, func(c *Context, call *Call) Result {
		name := call.StrArg(0)
		base := strings.ToLower(name)
		known := c.M.FS.Exists(`C:\Windows\System32\`+base) || c.M.FS.Exists(name)
		if !known {
			c.M.Record(trace.Event{
				Kind: trace.KindImageLoad, PID: c.P.PID, Image: c.P.Image,
				Target: name, Success: false,
			})
			return Result{Status: StatusFileNotFound}
		}
		if c.P.LoadModule(baseNameOf(name)) {
			c.M.Record(trace.Event{
				Kind: trace.KindImageLoad, PID: c.P.PID, Image: c.P.Image,
				Target: name, Success: true,
			})
		}
		return Result{Status: StatusSuccess, Num: moduleAddr(name)}
	})
	return r.Num, r.Status
}

// GetProcAddress resolves an export from a loaded module. The simulation
// exposes the exports evasion checks look for: every catalogued API
// resolves from its owning system DLL, and Wine/sandbox-specific exports
// resolve only where the environment provides them (never, in these
// profiles — Scarecrow fakes them instead).
func (c *Context) GetProcAddress(module, proc string) (uint64, Status) {
	r := c.invoke("GetProcAddress", []arg{strArg(module), strArg(proc)}, func(c *Context, call *Call) Result {
		module, proc := call.StrArg(0), call.StrArg(1)
		if !c.P.HasModule(module) {
			return Result{Status: StatusInvalidHandle}
		}
		if APIKnown(proc) {
			return Result{Status: StatusSuccess, Num: moduleAddr(module + "!" + proc)}
		}
		// Non-catalogued exports (wine_get_unix_file_name, ...) exist only
		// if the environment explicitly exports them.
		return Result{Status: StatusNotFound}
	})
	return r.Num, r.Status
}

// moduleAddr derives a stable pseudo base address from a module name.
func moduleAddr(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return 0x7ff000000000 | (h & 0xffffff000)
}

func baseNameOf(path string) string {
	if i := strings.LastIndexAny(path, `\/`); i >= 0 {
		return path[i+1:]
	}
	return path
}
