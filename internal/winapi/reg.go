package winapi

import (
	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// KeyInfo is the result bundle of NtQueryKey: the counts a caller needs to
// size enumeration buffers — and the counts wear-and-tear fingerprinting
// cares about.
type KeyInfo struct {
	SubkeyCount int
	ValueCount  int
}

// RegOpenKeyEx opens a registry key, returning StatusSuccess when it
// exists. This is the classic existence probe evasive malware uses against
// keys such as SOFTWARE\Oracle\VirtualBox Guest Additions.
func (c *Context) RegOpenKeyEx(path string) Status {
	return c.invoke("RegOpenKeyEx", []arg{strArg(path)}, genuineOpenKey).Status
}

// NtOpenKeyEx is the native-layer variant of RegOpenKeyEx. Scarecrow hooks
// both layers (Table III lists NtOpenKeyEx among the wear-and-tear APIs).
func (c *Context) NtOpenKeyEx(path string) Status {
	return c.invoke("NtOpenKeyEx", []arg{strArg(path)}, genuineOpenKey).Status
}

func genuineOpenKey(c *Context, call *Call) Result {
	path := call.StrArg(0)
	ok := c.M.Registry.KeyExists(path)
	c.M.Record(trace.Event{
		Kind: trace.KindRegOpenKey, PID: c.P.PID, Image: c.P.Image,
		Target: path, Success: ok,
	})
	if !ok {
		return Result{Status: StatusFileNotFound}
	}
	return Result{Status: StatusSuccess}
}

// RegQueryValueEx reads a value under a key.
func (c *Context) RegQueryValueEx(path, name string) (winsim.Value, Status) {
	r := c.invoke("RegQueryValueEx", []arg{strArg(path), strArg(name)}, genuineQueryValue)
	return r.payload().Value, r.Status
}

// NtQueryValueKey is the native-layer value read.
func (c *Context) NtQueryValueKey(path, name string) (winsim.Value, Status) {
	r := c.invoke("NtQueryValueKey", []arg{strArg(path), strArg(name)}, genuineQueryValue)
	return r.payload().Value, r.Status
}

func genuineQueryValue(c *Context, call *Call) Result {
	path, name := call.StrArg(0), call.StrArg(1)
	v, ok := c.M.Registry.QueryValue(path, name)
	c.M.Record(trace.Event{
		Kind: trace.KindRegQueryValue, PID: c.P.PID, Image: c.P.Image,
		Target: path, Detail: "value=" + name, Success: ok,
	})
	if !ok {
		return Result{Status: StatusFileNotFound}
	}
	p := call.Payload()
	p.Value = v
	return Result{Status: StatusSuccess, Ext: p}
}

// NtQueryKey returns subkey/value counts for a key.
func (c *Context) NtQueryKey(path string) (KeyInfo, Status) {
	r := c.invoke("NtQueryKey", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		path := call.StrArg(0)
		k, ok := c.M.Registry.OpenKey(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegQueryValue, PID: c.P.PID, Image: c.P.Image,
			Target: path, Detail: "info", Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		p := call.Payload()
		p.KeyInfo = KeyInfo{SubkeyCount: k.SubkeyCount(), ValueCount: k.ValueCount()}
		return Result{Status: StatusSuccess, Ext: p}
	})
	return r.payload().KeyInfo, r.Status
}

// RegEnumKeyEx returns the name of the index-th subkey.
func (c *Context) RegEnumKeyEx(path string, index int) (string, Status) {
	r := c.invoke("RegEnumKeyEx", []arg{strArg(path), intArg(index)}, genuineEnumKey)
	return r.Str, r.Status
}

// NtEnumerateKey is the native-layer subkey enumeration; unlike
// RegEnumKeyEx it records no trace event.
func (c *Context) NtEnumerateKey(path string, index int) (string, Status) {
	r := c.invoke("NtEnumerateKey", []arg{strArg(path), intArg(index)}, genuineEnumKey)
	return r.Str, r.Status
}

func genuineEnumKey(c *Context, call *Call) Result {
	path, index := call.StrArg(0), int(call.num(1))
	k, ok := c.M.Registry.OpenKey(path)
	if !ok {
		return Result{Status: StatusFileNotFound}
	}
	names := k.SubkeyNames()
	if call.Name == "RegEnumKeyEx" {
		c.M.Record(trace.Event{
			Kind: trace.KindRegEnumKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: true,
		})
	}
	if index < 0 || index >= len(names) {
		return Result{Status: StatusNoMoreItems}
	}
	return Result{Status: StatusSuccess, Str: names[index]}
}

// RegCreateKeyEx creates a key (and ancestors).
func (c *Context) RegCreateKeyEx(path string) Status {
	return c.invoke("RegCreateKeyEx", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		path := call.StrArg(0)
		_, err := c.M.Registry.CreateKey(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegCreateKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: err == nil,
		})
		if err != nil {
			return Result{Status: StatusInvalidParam}
		}
		return Result{Status: StatusSuccess}
	}).Status
}

// RegSetValueEx writes a value, creating the key if needed.
func (c *Context) RegSetValueEx(path, name string, v winsim.Value) Status {
	return c.invoke("RegSetValueEx", []arg{strArg(path), strArg(name), refArg(v)}, func(c *Context, call *Call) Result {
		path, name := call.StrArg(0), call.StrArg(1)
		err := c.M.Registry.SetValue(path, name, call.Arg(2).(winsim.Value))
		c.M.Record(trace.Event{
			Kind: trace.KindRegSetValue, PID: c.P.PID, Image: c.P.Image,
			Target: path, Detail: "value=" + name, Success: err == nil,
		})
		if err != nil {
			return Result{Status: StatusInvalidParam}
		}
		return Result{Status: StatusSuccess}
	}).Status
}

// RegDeleteKey removes a key and its subtree.
func (c *Context) RegDeleteKey(path string) Status {
	return c.invoke("RegDeleteKey", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		path := call.StrArg(0)
		ok := c.M.Registry.DeleteKey(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegDeleteKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		return Result{Status: StatusSuccess}
	}).Status
}
