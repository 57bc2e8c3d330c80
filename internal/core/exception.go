package core

import (
	"time"

	"scarecrow/internal/winapi"
)

// hookExceptionDeception adds the §II-B(g) timing discrepancy to
// default exception processing: dynamic analysis systems (debuggers,
// shadow-page monitors) inflate exception-dispatch latency, and malware
// measures RaiseException round trips to detect them. When the
// timing-discrepancy module is active, Scarecrow's hook inserts a
// deceptive dispatch delay so the measurement reads "analysis system".
//
// Like the wear-and-tear hooks, this installs on top of the 29 resource
// hooks and only when Config.TimingDiscrepancy is enabled (bare-metal
// deployments; see Config).
func (e *Engine) hookExceptionDeception(t *winapi.HookTable, session *Session) error {
	const deceptiveDispatchDelay = 2 * time.Millisecond
	handler := func(c *winapi.Context, call *winapi.Call) winapi.Result {
		session.Report(TriggerReport{
			Time: c.M.Clock.Now(), PID: c.P.PID, API: call.Name,
			Category: CategoryHook, Vendor: VendorDebugger, Resource: "exception-dispatch",
		})
		c.M.Clock.Advance(deceptiveDispatchDelay)
		return call.Original()
	}
	return t.Hook("RaiseException", handler)
}
