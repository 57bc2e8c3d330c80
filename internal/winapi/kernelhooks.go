package winapi

import (
	"fmt"
	"sort"
	"strings"
)

// Kernel-level hooking (§VI-A of the paper: "we plan to extend SCARECROW
// with kernel/hypervisor-based hooking"). Kernel hooks interpose on the
// system-call dispatch layer (the SSDT analogue), machine-wide:
//
//   - they catch raw-syscall stubs that bypass every user-mode hook
//     (Context.DirectSyscall), and
//   - they also sit underneath the user-mode chain for the same Nt* entry
//     points, so a call that passes through user hooks untouched can still
//     be deceived at the kernel boundary;
//   - unlike inline hooks they rewrite no prologues: anti-hooking byte
//     checks cannot see them.
//
// Only native (Nt*) entry points dispatch through the kernel gate; Win32
// wrappers reach it via their underlying Nt call in reality, which the
// model approximates by keeping Win32-level results at the user layer.

// kernelHookable reports whether an API name is a native system call.
func kernelHookable(api string) bool { return strings.HasPrefix(api, "Nt") }

// InstallKernelHook interposes handler on the named system call for every
// process on the machine. Later installs wrap earlier ones, as with
// user-mode hooks.
func (s *System) InstallKernelHook(api string, handler HookHandler) error {
	if s.M.Faults.InjectionFault() {
		return fmt.Errorf("winapi: injected fault: kernel hook installation for %q failed", api)
	}
	meta, ok := apiCatalog[api]
	if !ok {
		return fmt.Errorf("winapi: unknown API %q", api)
	}
	_ = meta
	if !kernelHookable(api) {
		return fmt.Errorf("winapi: %q is not a system call; kernel hooks cover Nt* entry points only", api)
	}
	if s.kernelHooks == nil {
		s.kernelHooks = make(map[string][]HookHandler)
	}
	s.kernelHooks[api] = append(s.kernelHooks[api], handler)
	return nil
}

// KernelHookedAPIs returns the system calls currently hooked at the
// kernel layer, sorted for deterministic reports.
func (s *System) KernelHookedAPIs() []string {
	out := make([]string, 0, len(s.kernelHooks))
	for name := range s.kernelHooks {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// dispatchSyscall runs the kernel hook chain for a system call, bottoming
// out at the genuine kernel implementation. It is the single gate both
// ntdll-routed calls and raw syscall stubs pass through.
func (c *Context) dispatchSyscall(name string, args []arg, genuine genuineFunc) Result {
	return c.sys.dispatch(c, name, args, nil, c.sys.kernelHooks[name], genuine)
}
