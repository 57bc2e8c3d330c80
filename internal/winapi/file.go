package winapi

import (
	"strings"

	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// DiskSpace is the GetDiskFreeSpaceEx result bundle.
type DiskSpace struct {
	TotalBytes uint64
	FreeBytes  uint64
}

// VolumeInfo is the GetVolumeInformation result bundle.
type VolumeInfo struct {
	SerialNumber uint32
	FileSystem   string
}

// CreateFile opens an existing file or device. Opening device objects such
// as \\.\VBoxGuest is a standard VM-guest probe.
func (c *Context) CreateFile(path string) Status {
	return c.invoke("CreateFile", []arg{strArg(path)}, genuineOpenFile).Status
}

// NtCreateFile is the native-layer open (Table III lists it for the
// missing-DLL wear-and-tear artifact).
func (c *Context) NtCreateFile(path string) Status {
	return c.invoke("NtCreateFile", []arg{strArg(path)}, genuineOpenFile).Status
}

// NtQueryAttributesFile probes file existence without opening it — the
// system call Table I's sample 9437eab uses against vmmouse.sys and
// friends.
func (c *Context) NtQueryAttributesFile(path string) (winsim.FileInfo, Status) {
	r := c.invoke("NtQueryAttributesFile", []arg{strArg(path)}, genuineStatFile)
	return r.payload().FileInfo, r.Status
}

// GetFileAttributes is the Win32-layer existence/metadata probe.
func (c *Context) GetFileAttributes(path string) (winsim.FileInfo, Status) {
	r := c.invoke("GetFileAttributes", []arg{strArg(path)}, genuineStatFile)
	return r.payload().FileInfo, r.Status
}

// genuineStatFile looks a path up and reports its metadata.
func genuineStatFile(c *Context, call *Call) Result {
	path := call.StrArg(0)
	info, ok := c.M.FS.Stat(path)
	c.M.Record(trace.Event{
		Kind: trace.KindFileQuery, PID: c.P.PID, Image: c.P.Image,
		Target: path, Success: ok,
	})
	if !ok {
		return Result{Status: StatusFileNotFound}
	}
	p := call.Payload()
	p.FileInfo = info
	return Result{Status: StatusSuccess, Ext: p}
}

// genuineOpenFile is genuineStatFile for the open calls, which report
// only whether the path exists.
func genuineOpenFile(c *Context, call *Call) Result {
	return Result{Status: genuineStatFile(c, call).Status}
}

// WriteFile creates or replaces a file with data.
func (c *Context) WriteFile(path string, data []byte) Status {
	return c.invoke("WriteFile", []arg{strArg(path), bytesArg(data)}, func(c *Context, call *Call) Result {
		path := call.StrArg(0)
		err := c.M.FS.WriteFile(path, call.args[1].b)
		c.M.Record(trace.Event{
			Kind: trace.KindFileWrite, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: err == nil,
		})
		if err != nil {
			return Result{Status: StatusAccessDenied}
		}
		return Result{Status: StatusSuccess}
	}).Status
}

// ReadFile returns a file's contents.
func (c *Context) ReadFile(path string) ([]byte, Status) {
	r := c.invoke("ReadFile", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		path := call.StrArg(0)
		data, ok := c.M.FS.ReadFile(path)
		c.M.Record(trace.Event{
			Kind: trace.KindFileRead, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		p := call.Payload()
		p.Data = data
		return Result{Status: StatusSuccess, Ext: p}
	})
	return r.payload().Data, r.Status
}

// DeleteFile removes a file.
func (c *Context) DeleteFile(path string) Status {
	return c.invoke("DeleteFile", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		path := call.StrArg(0)
		ok := c.M.FS.Delete(path)
		c.M.Record(trace.Event{
			Kind: trace.KindFileDelete, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		return Result{Status: StatusSuccess}
	}).Status
}

// FindFirstFile lists the entries of a directory matching a wildcard
// pattern (the FindFirstFile/FindNextFile sweep collapsed into one call).
// The final path component may use "*" and "?" wildcards, as on Windows:
// "C:\dir\*", "C:\dir\*.docx", "C:\dir\report?.xls".
func (c *Context) FindFirstFile(pattern string) ([]string, Status) {
	r := c.invoke("FindFirstFile", []arg{strArg(pattern)}, func(c *Context, call *Call) Result {
		dir, leaf := splitPattern(call.StrArg(0))
		var names []string
		for _, name := range c.M.FS.List(dir) {
			if matchLeaf(leaf, baseNameOf(name)) {
				names = append(names, name)
			}
		}
		c.M.Record(trace.Event{
			Kind: trace.KindFileQuery, PID: c.P.PID, Image: c.P.Image,
			Target: dir, Detail: "enum=" + leaf, Success: len(names) > 0,
		})
		if len(names) == 0 {
			return Result{Status: StatusFileNotFound}
		}
		p := call.Payload()
		p.Strs = names
		return Result{Status: StatusSuccess, Ext: p}
	})
	return r.payload().Strs, r.Status
}

// splitPattern separates a search pattern into its directory and leaf
// wildcard. A pattern without wildcards in the leaf means "everything in
// this directory" when it ends in a separator, otherwise the leaf is an
// exact-name filter.
func splitPattern(pattern string) (dir, leaf string) {
	p := strings.ReplaceAll(pattern, "/", `\`)
	i := strings.LastIndexByte(p, '\\')
	if i < 0 {
		return p, "*"
	}
	dir, leaf = p[:i], p[i+1:]
	if leaf == "" {
		leaf = "*"
	}
	return dir, leaf
}

// matchLeaf implements Windows-style case-insensitive wildcard matching
// with "*" (any run) and "?" (any single character).
func matchLeaf(pattern, name string) bool {
	return matchFold(strings.ToLower(pattern), strings.ToLower(name))
}

func matchFold(p, s string) bool {
	// Classic backtracking wildcard match, linear thanks to the single
	// star-resume point.
	var starP, starS = -1, 0
	i, j := 0, 0
	for j < len(s) {
		switch {
		case i < len(p) && (p[i] == '?' || p[i] == s[j]):
			i++
			j++
		case i < len(p) && p[i] == '*':
			starP, starS = i, j
			i++
		case starP >= 0:
			starS++
			i, j = starP+1, starS
		default:
			return false
		}
	}
	for i < len(p) && p[i] == '*' {
		i++
	}
	return i == len(p)
}

// GetDiskFreeSpaceEx reports the capacity of the volume owning path.
// Implausibly small disks are a classic sandbox tell (Malwr's 5 GB C:).
func (c *Context) GetDiskFreeSpaceEx(path string) (DiskSpace, Status) {
	r := c.invoke("GetDiskFreeSpaceEx", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		v := c.M.FS.VolumeFor(call.StrArg(0))
		if v == nil {
			return Result{Status: StatusInvalidParam}
		}
		p := call.Payload()
		p.Disk = DiskSpace{TotalBytes: v.TotalBytes, FreeBytes: v.FreeBytes}
		return Result{Status: StatusSuccess, Ext: p}
	})
	return r.payload().Disk, r.Status
}

// GetVolumeInformation returns the volume serial and filesystem name.
func (c *Context) GetVolumeInformation(path string) (VolumeInfo, Status) {
	r := c.invoke("GetVolumeInformation", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		v := c.M.FS.VolumeFor(call.StrArg(0))
		if v == nil {
			return Result{Status: StatusInvalidParam}
		}
		p := call.Payload()
		p.Vol = VolumeInfo{SerialNumber: v.SerialNumber, FileSystem: "NTFS"}
		return Result{Status: StatusSuccess, Ext: p}
	})
	return r.payload().Vol, r.Status
}

// GetDriveType reports the drive category; all modeled volumes are fixed
// disks.
func (c *Context) GetDriveType(path string) (uint64, Status) {
	const driveFixed = 3
	r := c.invoke("GetDriveType", []arg{strArg(path)}, func(c *Context, call *Call) Result {
		if c.M.FS.VolumeFor(call.StrArg(0)) == nil {
			return Result{Status: StatusInvalidParam}
		}
		return Result{Status: StatusSuccess, Num: driveFixed}
	})
	return r.Num, r.Status
}
