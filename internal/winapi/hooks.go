package winapi

import (
	"fmt"
	"sort"
	"time"
)

// HookHandler is customized code interposed on an API function. It receives
// the call frame and must return the API's result bundle. Handlers may
// inspect arguments, fabricate results, or call call.Original() to invoke
// the next handler in the chain (ultimately the real function) — the
// trampoline of classic inline hooking.
type HookHandler func(c *Context, call *Call) Result

// genuineFunc is the real implementation beneath every hook chain. It
// reads its arguments from the call frame, so the implementations are
// plain functions that capture nothing.
type genuineFunc func(c *Context, call *Call) Result

// genuineSuccess is the implementation of the APIs whose only effect is
// the call itself (its cost and trace event).
func genuineSuccess(*Context, *Call) Result { return Result{Status: StatusSuccess} }

// HookTable is a prebuilt, shareable set of hook chains: the in-memory
// image of an injected DLL's patch set. A deployment builds its table once
// and attaches it to every target process with InstallHookTable — O(1) per
// process instead of re-installing every hook chain per injection, which
// is exactly how a real DLL's hook body is mapped once and patched into
// each process. A table must not be mutated after its first install; the
// processes sharing it would observe the change retroactively.
type HookTable struct {
	handlers map[string][]HookHandler
}

// NewHookTable returns an empty hook table.
func NewHookTable() *HookTable {
	return &HookTable{handlers: make(map[string][]HookHandler)}
}

// Hook appends handler to the table's chain for the named API, validating
// the name against the catalog exactly like InstallHook. Later hooks wrap
// earlier ones once the table is installed.
func (t *HookTable) Hook(api string, handler HookHandler) error {
	meta, ok := apiCatalog[api]
	if !ok {
		return fmt.Errorf("winapi: unknown API %q", api)
	}
	if !meta.hookable {
		return fmt.Errorf("winapi: API %q is not hookable from user mode", api)
	}
	t.handlers[api] = append(t.handlers[api], handler)
	return nil
}

// hook appends without catalog validation — for the sandbox monitor table
// built from profile data in NewSystem, which must not fail construction.
func (t *HookTable) hook(api string, handler HookHandler) {
	t.handlers[api] = append(t.handlers[api], handler)
}

// maxArgs is the largest argument count of any modeled API.
const maxArgs = 3

type argKind uint8

const (
	argStr argKind = iota + 1
	argInt
	argDur
	argBytes
	argRef
)

// arg is one call argument. Strings, integers, durations and byte slices
// are stored typed, so passing them boxes nothing; any other value (a
// process handle, a registry value) rides in ref.
type arg struct {
	kind argKind
	s    string
	n    int64
	b    []byte
	ref  any
}

func strArg(s string) arg        { return arg{kind: argStr, s: s} }
func intArg(n int) arg           { return arg{kind: argInt, n: int64(n)} }
func durArg(d time.Duration) arg { return arg{kind: argDur, n: int64(d)} }
func bytesArg(b []byte) arg      { return arg{kind: argBytes, b: b} }
func refArg(v any) arg           { return arg{kind: argRef, ref: v} }

// anyArg stores an argument of unknown type (DirectSyscall's), typed when
// it is a string or an int so that StrArg and Arg read it as before.
func anyArg(v any) arg {
	switch v := v.(type) {
	case string:
		return strArg(v)
	case int:
		return intArg(v)
	}
	return refArg(v)
}

// Call is the frame of one in-flight API invocation as seen by a hook
// handler. Dispatch is by index into the process's combined hook chain
// (kernel chain below, user chain above), so one frame serves the whole
// chain with no per-handler trampoline closures.
//
// Frames live on the System's frame stack and are reused by later calls:
// a *Call is valid only while its handler runs. A handler must not keep
// it, or call Original on it, after returning.
type Call struct {
	// Name is the API name from the catalog.
	Name string

	args    [maxArgs]arg // in declaration order; args[:nargs] are set
	nargs   int
	c       *Context
	st      *procState // user-mode chain source; nil for pure kernel dispatch
	kchain  []HookHandler
	genuine genuineFunc
	idx     int // combined-chain index of the running handler
	// payload backs the Ext of results produced on this frame; filled
	// through Payload, so a rare out-parameter allocates nothing.
	payload Payload
}

// Payload clears the frame's payload and returns it for the running
// handler (or genuine implementation) to fill and return as its Result's
// Ext. It lives in the reused frame, so it is valid exactly as long as
// call is, and the next call at the same depth overwrites it.
func (call *Call) Payload() *Payload {
	call.payload = Payload{}
	return &call.payload
}

// Edit returns the payload of r — a result from further down the chain —
// for a hook to modify in place before passing r on, attaching the frame's
// cleared payload first when r carries none.
func (call *Call) Edit(r *Result) *Payload {
	if r.Ext == nil {
		r.Ext = call.Payload()
	}
	return r.Ext
}

// Original invokes the rest of the hook chain and finally the genuine API,
// returning its result bundle. Calling it more than once re-executes the
// remainder of the chain.
func (call *Call) Original() Result { return call.run(call.idx - 1) }

// run executes combined-chain position i: a handler for i >= 0, the
// genuine implementation below the chain for i < 0.
func (call *Call) run(i int) Result {
	if i < 0 {
		return call.genuine(call.c, call)
	}
	h := call.handler(i)
	saved := call.idx
	call.idx = i
	out := h(call.c, call)
	call.idx = saved
	return out
}

// handler resolves combined-chain position i: kernel hooks occupy the low
// indices (they sit at the syscall gate, beneath every user-mode hook),
// user-mode hooks the high ones. Higher index = installed later = runs
// earlier.
func (call *Call) handler(i int) HookHandler {
	if i < len(call.kchain) {
		return call.kchain[i]
	}
	return call.st.handlerAt(call.Name, i-len(call.kchain))
}

// Arg returns argument i, or nil when absent.
func (call *Call) Arg(i int) any {
	if i < 0 || i >= call.nargs {
		return nil
	}
	a := &call.args[i]
	switch a.kind {
	case argStr:
		return a.s
	case argInt:
		return int(a.n)
	case argDur:
		return time.Duration(a.n)
	case argBytes:
		return a.b
	}
	return a.ref
}

// StrArg returns argument i as a string ("" when absent or not a string).
func (call *Call) StrArg(i int) string {
	if i < 0 || i >= call.nargs || call.args[i].kind != argStr {
		return ""
	}
	return call.args[i].s
}

// num returns integer or duration argument i unboxed; genuine
// implementations read their own arguments, so the kind always matches.
func (call *Call) num(i int) int64 { return call.args[i].n }

// dispatch runs one call through its chain on the next frame of the
// system's frame stack: kchain beneath st's user-mode chain for name (st is
// nil at the raw syscall gate), genuine beneath both. A panic unwinding the
// chain skips the pop; runOne resets the depth when it recovers.
func (s *System) dispatch(c *Context, name string, args []arg, st *procState, kchain []HookHandler, genuine genuineFunc) Result {
	if s.depth == len(s.frames) {
		s.frames = append(s.frames, new(Call))
	}
	call := s.frames[s.depth]
	s.depth++
	call.Name = name
	call.nargs = copy(call.args[:], args)
	call.c, call.st, call.kchain, call.genuine = c, st, kchain, genuine
	call.idx = len(kchain)
	if st != nil {
		call.idx += st.chainLen(name)
	}
	out := call.run(call.idx - 1)
	s.depth--
	return out
}

// Classic hot-patch prologue of Win32 API functions: mov edi,edi; push
// ebp; mov ebp,esp. Anti-hooking code checks the first two bytes (Figure 1
// of the paper).
var cleanPrologue = []byte{0x8B, 0xFF, 0x55, 0x8B, 0xEC}

// hookedPrologue returns the prologue after an inline hook is written: a
// JMP rel32 to the hook body. The displacement bytes are synthesized from
// the API name so different hooks look different, as in reality.
func hookedPrologue(api string) []byte {
	var h uint32 = 2166136261
	for i := 0; i < len(api); i++ {
		h = (h ^ uint32(api[i])) * 16777619
	}
	return []byte{0xE9, byte(h), byte(h >> 8), byte(h >> 16), byte(h >> 24)}
}

// prologueCache precomputes the hooked prologue for every catalog entry:
// the bytes are a pure function of the API name, so every process hooking
// an API shows the same patch, and reads need no per-call synthesis.
// Read-only after init.
var prologueCache = func() map[string][]byte {
	m := make(map[string][]byte, len(apiCatalog))
	for name := range apiCatalog {
		m[name] = hookedPrologue(name)
	}
	return m
}()

// procState is the per-process user-mode state the System tracks: attached
// hook tables, per-process hook chains, and arbitrary per-process data
// hook packages stash (e.g. a deception session). Maps are allocated
// lazily; a process that is never hooked costs one small struct.
type procState struct {
	// tables are shared hook tables in attach order; their chains sit
	// below (run after) any per-process installs. They start in tableBuf,
	// which holds the environment monitor's and a deployment's table
	// without a second allocation.
	tables   []*HookTable
	tableBuf [2]*HookTable
	// local holds per-process InstallHook chains.
	local map[string][]HookHandler
	// Data lets hook packages (Scarecrow) keep per-process state.
	Data map[string]any
}

func newProcState() *procState {
	st := &procState{}
	st.tables = st.tableBuf[:0]
	return st
}

// chainLen returns the combined user-mode chain length for the API.
func (st *procState) chainLen(api string) int {
	n := len(st.local[api])
	for _, t := range st.tables {
		n += len(t.handlers[api])
	}
	return n
}

// handlerAt resolves user-chain position i in install order: attached
// tables first (attach order, each in table order), then local installs.
func (st *procState) handlerAt(api string, i int) HookHandler {
	for _, t := range st.tables {
		chain := t.handlers[api]
		if i < len(chain) {
			return chain[i]
		}
		i -= len(chain)
	}
	return st.local[api][i]
}

// hooked reports whether any user-mode hook covers the API.
func (st *procState) hooked(api string) bool {
	if len(st.local[api]) > 0 {
		return true
	}
	for _, t := range st.tables {
		if len(t.handlers[api]) > 0 {
			return true
		}
	}
	return false
}

// InstallHook interposes handler on the named API for the given process.
// The target function's prologue is rewritten to a JMP, making the hook
// itself observable to anti-hooking checks — which is a feature, not a bug,
// for Scarecrow. Later installs wrap earlier ones, and per-process installs
// wrap any attached hook table.
func (s *System) InstallHook(pid int, api string, handler HookHandler) error {
	if s.M.Faults.InjectionFault() {
		return fmt.Errorf("winapi: injected fault: hook installation for %q failed in PID %d", api, pid)
	}
	meta, ok := apiCatalog[api]
	if !ok {
		return fmt.Errorf("winapi: unknown API %q", api)
	}
	if !meta.hookable {
		return fmt.Errorf("winapi: API %q is not hookable from user mode", api)
	}
	st := s.stateFor(pid)
	if st.local == nil {
		st.local = make(map[string][]HookHandler)
	}
	st.local[api] = append(st.local[api], handler)
	return nil
}

// InstallHookTable attaches a prebuilt hook table to the process: one
// injection, one fault point, every chain in the table live at once. The
// same table may be attached to any number of processes; it must not be
// mutated afterwards.
func (s *System) InstallHookTable(pid int, t *HookTable) error {
	if s.M.Faults.InjectionFault() {
		return fmt.Errorf("winapi: injected fault: hook table installation failed in PID %d", pid)
	}
	st := s.stateFor(pid)
	st.tables = append(st.tables, t)
	return nil
}

// HookedAPIs returns the names of APIs currently hooked in the process,
// sorted so reports built from it replay deterministically.
func (s *System) HookedAPIs(pid int) []string {
	st := s.stateFor(pid)
	seen := make(map[string]bool)
	for name, chain := range st.local {
		if len(chain) > 0 {
			seen[name] = true
		}
	}
	for _, t := range st.tables {
		for name, chain := range t.handlers {
			if len(chain) > 0 {
				seen[name] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ReadFunctionPrologue models reading the first bytes of an API function's
// code directly from memory. It is not an API call: it cannot be hooked,
// consumes only a memory-read cost, and is exactly how anti-hooking malware
// detects inline hooks.
func (c *Context) ReadFunctionPrologue(api string) []byte {
	c.M.Clock.Advance(memoryReadCost)
	st := c.sys.stateFor(c.P.PID)
	src := cleanPrologue
	if st.hooked(api) {
		if b, ok := prologueCache[api]; ok {
			src = b
		} else {
			src = hookedPrologue(api)
		}
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// PrologueIntact reports whether the named API still begins with the
// hot-patch prologue (mov edi,edi) in this process — the check_hook test
// from Figure 1 of the paper.
func (c *Context) PrologueIntact(api string) bool {
	c.M.Clock.Advance(memoryReadCost)
	return !c.sys.stateFor(c.P.PID).hooked(api)
}

// invoke runs one API call: it charges the call cost, records the APICall
// trace event, then dispatches through the process's hook chain (outermost
// handler first) down to the genuine implementation. Native entry points
// bottom out at the kernel syscall gate, where machine-wide kernel hooks
// (if any) interpose beneath the user-mode chain. The arguments are copied
// into a reused call frame, so dispatch allocates nothing.
func (c *Context) invoke(name string, args []arg, genuine genuineFunc) Result {
	meta, ok := apiCatalog[name]
	if !ok {
		panic(fmt.Sprintf("winapi: API %q missing from catalog", name))
	}
	// Real-time enforcement happens before the call executes: a killed
	// process never reaches its next API, an isolated one has network
	// calls denied here, a throttled one pays injected delay first.
	if out, blocked := c.applyEnforcement(name); blocked {
		c.M.Clock.Advance(meta.cost)
		c.recordAPICall(name)
		return out
	}
	c.M.Clock.Advance(meta.cost)
	c.recordAPICall(name)

	var kchain []HookHandler
	if kernelHookable(name) {
		kchain = c.sys.kernelHooks[name]
	}
	return c.sys.dispatch(c, name, args, c.sys.stateFor(c.P.PID), kchain, genuine)
}
