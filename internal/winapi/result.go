package winapi

import "scarecrow/internal/winsim"

// Result is the uniform bundle every modeled API returns through the hook
// chain. Genuine implementations and hook handlers both produce a Result;
// each API wrapper extracts the fields it declares. A single shared type
// (rather than one per API) lets deception engines fabricate results
// without reaching into per-API internals — the moral equivalent of writing
// the out-parameters of the real calling convention.
//
// Only the fields an API documents are meaningful for that API; the rest
// stay zero. A Result travels by value through every layer of the chain,
// so it holds only the scalar out-parameters every call may use (at most
// 64 bytes, returned in registers); the rarer, larger ones ride in the
// Payload that Ext points to.
type Result struct {
	Status Status
	Bool   bool
	Num    uint64
	Str    string
	Code   int
	// Ext carries the API's remaining out-parameters; nil when it has
	// none. It normally points into a call frame (see Call.Payload), so
	// it is valid exactly as long as that frame's *Call is.
	Ext *Payload
}

// Payload holds the out-parameters too large or too rare to travel in a
// Result by value: slices, a created process, and the per-API info
// structs.
type Payload struct {
	Strs     []string
	Data     []byte
	Proc     *winsim.Process
	Value    winsim.Value
	KeyInfo  KeyInfo
	FileInfo winsim.FileInfo
	Disk     DiskSpace
	Vol      VolumeInfo
	Ver      OSVersionInfo
	SysInfo  SystemInfo
	Mem      MemoryStatus
	Adapters []AdapterInfo
	Entries  []ProcessEntry
	Window   winsim.Window
}

// noPayload is what a Result without a payload reads as. Never written.
var noPayload Payload

// payload returns the result's payload for reading, or the zero payload
// when the result carries none (a hook answered with a bare status).
func (r Result) payload() *Payload {
	if r.Ext != nil {
		return r.Ext
	}
	return &noPayload
}
