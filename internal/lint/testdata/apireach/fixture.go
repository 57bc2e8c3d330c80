// Fixture: a miniature of the real internal/winapi surface, loaded under
// its import path so apireach's whole-program verdict runs against it.
// Entries reached through a Context method's invoke dispatch, a
// hook-dispatch table, a HookedAPIs surface, or a hook-installation site
// are alive; the two phantom entries must be reported as camouflage gaps.
package winapi

type apiMeta struct {
	hookable bool
}

var apiCatalog = map[string]apiMeta{
	"CreateFile":        {hookable: true},
	"RegOpenKeyEx":      {hookable: true},
	"IsDebuggerPresent": {hookable: true},
	"GetTickCount":      {hookable: true},
	"NtQueryPhantom":    {hookable: true}, // want `apiCatalog entry "NtQueryPhantom" is unreachable`
	"EvtGhostNext":      {hookable: true}, // want `apiCatalog entry "EvtGhostNext" is unreachable`
}

// Result mirrors the real result bundle hook chains pass by value.
type Result struct{ Status int }

// HookHandler mirrors the real dispatch-table element type.
type HookHandler func(c *Context, call *Call) Result

// Call mirrors the real in-flight invocation frame.
type Call struct{ Name string }

// arg mirrors the real typed argument slot.
type arg struct{ s string }

// Context mirrors the real per-process API surface.
type Context struct{}

func (c *Context) invoke(name string, args []arg, genuine func(*Context, *Call) Result) Result {
	_ = apiCatalog[name]
	return genuine(c, &Call{Name: name})
}

// CreateFile reaches its catalog entry through invoke.
func (c *Context) CreateFile(path string) Result {
	return c.invoke("CreateFile", []arg{{s: path}}, func(*Context, *Call) Result { return Result{} })
}

// System mirrors the real hook installer.
type System struct{}

func (s *System) InstallHook(pid int, api string, h HookHandler) error {
	_ = apiCatalog[api]
	_ = h
	return nil
}

// handlers is a hook-dispatch table; its keys are reachable.
var handlers = map[string]HookHandler{
	"RegOpenKeyEx": nil,
}

// HookedAPIs is a declared hook surface; its elements are reachable.
var HookedAPIs = []string{"IsDebuggerPresent"}

// Install reaches GetTickCount through a hook-installation site.
func Install(s *System) error {
	_ = handlers
	return s.InstallHook(1, "GetTickCount", nil)
}
