package core

import (
	"fmt"

	"scarecrow/internal/winapi"
)

// InstallKernelHooks deploys the §VI-A extension: deception handlers on
// the system-call dispatch gate. They are machine-wide and prologue-free,
// and they close the raw-syscall bypass — an Nt* probe issued through a
// syscall stub still receives the deceptive answer.
//
// The kernel layer only answers probes that user-mode hooks would answer
// identically; pass-through stays genuine, so double interposition (user
// hook plus kernel hook on one call) cannot double-apply a fake: the user
// hook short-circuits first for deceptive resources, and genuine paths
// fall through both layers untouched.
func (e *Engine) InstallKernelHooks(sys *winapi.System, session *Session) error {
	report := func(c *winapi.Context, api string, cat Category, vendor VendorProfile, resource string) {
		session.Report(TriggerReport{
			Time: c.M.Clock.Now(), PID: c.P.PID, API: api + " [kernel]",
			Category: cat, Vendor: vendor, Resource: resource,
		})
	}
	allowed := func(v VendorProfile) bool {
		return session.vendorAllowed(v, e.Config.ProfileIsolation)
	}

	hooks := map[string]winapi.HookHandler{
		"NtOpenKeyEx": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			path := call.StrArg(0)
			if vendor, ok := e.DB.MatchRegKey(path); ok && allowed(vendor) {
				report(c, call.Name, CategoryRegistry, vendor, path)
				return winapi.Result{Status: winapi.StatusSuccess}
			}
			return call.Original()
		},
		"NtQueryAttributesFile": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			path := call.StrArg(0)
			if vendor, ok := e.DB.MatchFile(path); ok && allowed(vendor) {
				report(c, call.Name, CategoryFile, vendor, path)
				return winapi.Result{Status: winapi.StatusSuccess}
			}
			return call.Original()
		},
		"NtQuerySystemInformation": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			if call.StrArg(0) == winapi.SystemKernelDebuggerInformation {
				report(c, call.Name, CategoryDebugger, VendorDebugger, "KernelDebugger")
				return winapi.Result{Status: winapi.StatusSuccess, Num: 1}
			}
			return call.Original()
		},
	}
	for api, h := range hooks {
		if err := sys.InstallKernelHook(api, h); err != nil {
			return fmt.Errorf("core: kernel hook %s: %w", api, err)
		}
	}
	return nil
}
