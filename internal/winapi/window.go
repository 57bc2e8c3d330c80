package winapi

import (
	"scarecrow/internal/trace"

	"scarecrow/internal/winsim"
)

// FindWindow looks for a top-level window by class and/or title —
// the debugger-window probe from §II-B(d) of the paper.
func (c *Context) FindWindow(class, title string) (winsim.Window, Status) {
	r := c.invoke("FindWindow", []arg{strArg(class), strArg(title)}, func(c *Context, call *Call) Result {
		class, title := call.StrArg(0), call.StrArg(1)
		w, ok := c.M.Windows.Find(class, title)
		c.M.Record(trace.Event{
			Kind: trace.KindWindowQuery, PID: c.P.PID, Image: c.P.Image,
			Target: class + "|" + title, Success: ok,
		})
		if !ok {
			return Result{Status: StatusNotFound}
		}
		p := call.Payload()
		p.Window = w
		return Result{Status: StatusSuccess, Ext: p}
	})
	return r.payload().Window, r.Status
}

// EnumWindows returns the class names of all top-level windows.
func (c *Context) EnumWindows() []string {
	return c.invoke("EnumWindows", nil, func(c *Context, call *Call) Result {
		p := call.Payload()
		p.Strs = c.M.Windows.Classes()
		return Result{Status: StatusSuccess, Ext: p}
	}).payload().Strs
}
