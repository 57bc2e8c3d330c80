package core

import (
	"fmt"

	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// ControllerImage is the executable path of scarecrow.exe on a protected
// host.
const ControllerImage = `C:\Program Files\Scarecrow\scarecrow.exe`

// Controller is the deployment framework of Figure 2: scarecrow.exe starts
// the untrusted target, injects scarecrow.dll (the hook set) into it,
// follows injection into every descendant the target spawns (suspend →
// inject → resume on CreateProcess), and receives trigger reports over the
// IPC session.
//
// Launching the target from the controller is itself a deception: the
// target's parent process is not explorer.exe, exactly as when a sandbox
// analysis daemon runs a sample (§III-B).
type Controller struct {
	Engine  *Engine
	Session *Session

	sys      *winapi.System
	proc     *winsim.Process
	injected winsim.PIDMap[bool]
	// followFailures records descendants whose follow-injection failed.
	// The CreateProcess notification callback has no error channel (as in
	// reality), so failures are recorded and alerted instead of lost.
	followFailures []string
}

// Deploy installs Scarecrow on a machine: starts the controller process,
// brings up the sinkhole proxy endpoint, and arranges descendant
// follow-injection. Targets are not touched until LaunchTarget. A failed
// deployment (kernel hook installation) returns an error rather than a
// half-protected controller.
func Deploy(sys *winapi.System, engine *Engine) (*Controller, error) {
	ctrl := &Controller{
		Engine:  engine,
		Session: NewSession(),
		sys:     sys,
	}
	ctrl.injected.Bind(sys.M.Procs)

	proc := sys.M.Procs.Create(ControllerImage, "scarecrow.exe --service", 4, sys.M.Clock.Now())
	proc.State = winsim.ProcessRunning
	proc.Protected = true
	ctrl.proc = proc
	sys.M.FS.Touch(ControllerImage, 4<<20)
	sys.M.FS.Touch(`C:\Program Files\Scarecrow\scarecrow.dll`, 1<<20)

	if engine.Config.HypervisorDeception {
		InstallHypervisor(sys.M, DefaultHypervisorFakes())
	}

	if engine.Config.KernelHooks {
		if err := engine.InstallKernelHooks(sys, ctrl.Session); err != nil {
			return nil, fmt.Errorf("core: kernel hook installation failed: %w", err)
		}
	}

	if engine.Config.SinkholeNXDomains {
		// The controller runs a local proxy that answers HTTP on the
		// sinkhole address, so deceived DNS answers lead somewhere "live".
		sys.M.Net.MarkReachable(engine.DB.SinkholeIP)
	}

	if engine.Config.FollowChildren {
		prev := sys.ChildLaunched
		sys.ChildLaunched = func(parent, child *winsim.Process) {
			if prev != nil {
				prev(parent, child)
			}
			if ctrl.injected.Get(parent.PID) {
				if err := ctrl.inject(child); err != nil {
					ctrl.followFailures = append(ctrl.followFailures, child.Image)
					ctrl.Session.Alert(fmt.Sprintf("follow-injection into %s (PID %d) failed: %v",
						child.Image, child.PID, err))
				}
			}
		}
	}
	return ctrl, nil
}

// LaunchTarget starts an untrusted program under the controller (making
// scarecrow.exe its parent), injects the hook DLL before the first
// instruction runs, and returns the target process.
func (ct *Controller) LaunchTarget(image, cmdline string) (*winsim.Process, error) {
	if _, ok := ct.sys.ProgramFor(image); !ok {
		return nil, fmt.Errorf("core: no program registered for image %q", image)
	}
	// Deceived GetModuleFileName answers point at the canonical sandbox
	// sample path; alias the target's body there so self-respawns through
	// the deceptive path still execute the sample's logic.
	if body, ok := ct.sys.ProgramFor(image); ok {
		ct.sys.RegisterProgram(ct.Engine.DB.HW.SamplePath, body)
	}
	child := ct.sys.Launch(image, cmdline, ct.proc)
	if err := ct.inject(child); err != nil {
		return nil, fmt.Errorf("core: injecting %s: %w", image, err)
	}
	return child, nil
}

// Watch deploys hooks into an already-created process (used when a target
// was launched by something else but should still be protected).
func (ct *Controller) Watch(p *winsim.Process) error {
	return ct.inject(p)
}

// inject installs the hook set into a process. A failure (unknown API,
// injection fault) leaves the process unmarked so a later Watch may retry,
// and is returned rather than panicking: one bad target must not take the
// controller — or a whole corpus sweep — down with it.
func (ct *Controller) inject(p *winsim.Process) error {
	if ct.injected.Get(p.PID) {
		return nil
	}
	if err := ct.Engine.InstallHooks(ct.sys, p, ct.Session); err != nil {
		return fmt.Errorf("core: hook installation in PID %d failed: %w", p.PID, err)
	}
	ct.injected.Set(p.PID, true)
	return nil
}

// Injected reports whether a PID carries scarecrow.dll.
func (ct *Controller) Injected(pid int) bool { return ct.injected.Get(pid) }

// FollowFailures returns the images of descendants whose follow-injection
// failed (also surfaced as session alerts).
func (ct *Controller) FollowFailures() []string { return ct.followFailures }

// InjectedCount returns how many processes carry scarecrow.dll.
func (ct *Controller) InjectedCount() int { return ct.injected.Len() }

// Process returns the controller's own process object.
func (ct *Controller) Process() *winsim.Process { return ct.proc }
