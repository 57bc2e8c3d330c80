package winsim

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// FileKind distinguishes regular files, directories, and device objects
// (e.g. \\.\VBoxGuest), which evasive malware opens to probe for VM guest
// drivers.
type FileKind int

// File kinds.
const (
	FileRegular FileKind = iota + 1
	FileDirectory
	FileDevice
)

// FileInfo describes a file system node.
type FileInfo struct {
	Path string // display path as first created
	Kind FileKind
	Size int64
}

// fsNode is immutable once installed in the node map: every operation that
// changes a file (WriteFile, Touch, AddDevice) installs a NEW node rather
// than mutating the existing one. The snapshot subsystem (snapshot.go)
// relies on this to share nodes copy-on-write across cloned machines — if
// you add an in-place mutation, deep-copy nodes in FileSystem.clone first.
type fsNode struct {
	info FileInfo
	data []byte
}

// Volume models one drive letter's capacity accounting. Sandboxes are
// frequently provisioned with implausibly small disks (the paper cites the
// 5 GB C: drive of the Malwr public sandbox), so total and free bytes are
// first-class observables.
type Volume struct {
	Letter     byte // e.g. 'C'
	TotalBytes uint64
	FreeBytes  uint64
	// SerialNumber is the volume serial returned by GetVolumeInformation.
	SerialNumber uint32
}

// FileSystem is the machine's virtual file store. Paths use backslash
// separators, are case-insensitive, and may name devices with the \\.\
// prefix.
//
// Clones share the node map copy-on-write: clone() hands the same map to
// both sides and marks them shared; the first mutation on either side
// copies the map (nodes themselves are immutable once installed, so the
// copy is shallow).
type FileSystem struct {
	nodes   map[string]*fsNode // normalized path -> node
	volumes map[byte]*Volume
	faults  *FaultInjector // nil unless the machine is armed (faults.go)
	shared  bool           // nodes map is shared with a clone; copy before writing
}

// ownNodes makes the node map private to this file system, copying it if
// a clone still shares it. Every mutator calls it before writing.
func (fs *FileSystem) ownNodes() {
	if !fs.shared {
		return
	}
	nodes := make(map[string]*fsNode, len(fs.nodes))
	for k, n := range fs.nodes {
		nodes[k] = n
	}
	fs.nodes = nodes
	fs.shared = false
}

// NewFileSystem returns a file system containing only a C: volume root.
func NewFileSystem() *FileSystem {
	fs := &FileSystem{
		nodes:   make(map[string]*fsNode),
		volumes: make(map[byte]*Volume),
	}
	fs.AddVolume(&Volume{Letter: 'C', TotalBytes: 500 << 30, FreeBytes: 350 << 30, SerialNumber: 0x1CE5C41E})
	fs.MkdirAll(`C:\`)
	return fs
}

// NormalizePath lowercases a path and collapses forward slashes to
// backslashes, producing the key used for case-insensitive lookups.
// Lowercasing happens first: it can change byte length on non-UTF-8 input,
// and the structural rules below must see the final bytes for the
// function to stay idempotent.
func NormalizePath(p string) string {
	p = strings.ToLower(strings.ReplaceAll(p, "/", `\`))
	p = strings.TrimRight(p, `\`)
	if p == "" {
		p = `\`
	}
	// Preserve the root form "c:\" rather than "c:".
	if len(p) == 2 && p[1] == ':' {
		p += `\`
	}
	return p
}

// AppendNormalPath appends NormalizePath(p) to dst and returns the
// extended slice. An ASCII path is folded byte by byte, so a caller that
// passes a stack buffer and indexes a map with string(result) looks the
// path up without a heap string.
func AppendNormalPath(dst []byte, p string) []byte {
	start := len(dst)
	for i := 0; i < len(p); i++ {
		c := p[i]
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:start], NormalizePath(p)...)
		case c == '/':
			c = '\\'
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	for len(dst) > start && dst[len(dst)-1] == '\\' {
		dst = dst[:len(dst)-1]
	}
	if n := len(dst) - start; n == 0 || n == 2 && dst[start+1] == ':' {
		dst = append(dst, '\\')
	}
	return dst
}

// AddVolume registers or replaces a volume.
func (fs *FileSystem) AddVolume(v *Volume) {
	fs.volumes[upperByte(v.Letter)] = v
}

// VolumeFor returns the volume owning the given path, or nil for device
// paths and unknown drive letters.
func (fs *FileSystem) VolumeFor(path string) *Volume {
	if strings.HasPrefix(path, `\\.\`) || len(path) < 2 || path[1] != ':' {
		return nil
	}
	return fs.volumes[upperByte(path[0])]
}

// Volumes returns all volumes sorted by drive letter.
func (fs *FileSystem) Volumes() []*Volume {
	out := make([]*Volume, 0, len(fs.volumes))
	for _, v := range fs.volumes {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Letter < out[j].Letter })
	return out
}

func upperByte(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

// MkdirAll creates the directory at path and any missing ancestors.
func (fs *FileSystem) MkdirAll(path string) {
	fs.ownNodes()
	norm := NormalizePath(path)
	parts := strings.Split(norm, `\`)
	display := strings.Split(strings.ReplaceAll(strings.TrimRight(path, `\/`), "/", `\`), `\`)
	cur := ""
	for i, p := range parts {
		if p == "" {
			continue
		}
		if cur == "" {
			cur = p
		} else {
			cur = cur + `\` + p
		}
		if _, ok := fs.nodes[cur]; ok {
			continue
		}
		disp := cur
		if i < len(display) {
			disp = strings.Join(display[:i+1], `\`)
		}
		fs.nodes[cur] = &fsNode{info: FileInfo{Path: disp, Kind: FileDirectory}}
	}
}

// WriteFile creates or replaces a regular file with the given contents,
// creating parent directories as needed and charging the volume's free
// space.
func (fs *FileSystem) WriteFile(path string, data []byte) error {
	fs.faults.fileOp()
	fs.ownNodes()
	if strings.HasPrefix(path, `\\.\`) {
		return fmt.Errorf("filesystem: cannot write device %q", path)
	}
	if dir := parentDir(path); dir != "" {
		fs.MkdirAll(dir)
	}
	norm := NormalizePath(path)
	if n, ok := fs.nodes[norm]; ok && n.info.Kind == FileDirectory {
		return fmt.Errorf("filesystem: %q is a directory", path)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	fs.nodes[norm] = &fsNode{
		info: FileInfo{Path: path, Kind: FileRegular, Size: int64(len(data))},
		data: buf,
	}
	if v := fs.VolumeFor(path); v != nil && v.FreeBytes > uint64(len(data)) {
		v.FreeBytes -= uint64(len(data))
	}
	return nil
}

// Touch creates an empty regular file at path (parents included) with a
// declared size but no stored contents; used to provision large deceptive
// file trees cheaply.
func (fs *FileSystem) Touch(path string, size int64) {
	fs.faults.fileOp()
	fs.ownNodes()
	if dir := parentDir(path); dir != "" {
		fs.MkdirAll(dir)
	}
	fs.nodes[NormalizePath(path)] = &fsNode{
		info: FileInfo{Path: path, Kind: FileRegular, Size: size},
	}
}

// AddDevice registers a device object such as \\.\VBoxGuest.
func (fs *FileSystem) AddDevice(path string) {
	fs.ownNodes()
	fs.nodes[NormalizePath(path)] = &fsNode{
		info: FileInfo{Path: path, Kind: FileDevice},
	}
}

// ReadFile returns the stored contents of a regular file.
func (fs *FileSystem) ReadFile(path string) ([]byte, bool) {
	fs.faults.fileOp()
	n, ok := fs.nodes[NormalizePath(path)]
	if !ok || n.info.Kind != FileRegular {
		return nil, false
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, true
}

// Stat returns metadata for the node at path.
func (fs *FileSystem) Stat(path string) (FileInfo, bool) {
	fs.faults.fileOp()
	n, ok := fs.nodes[NormalizePath(path)]
	if !ok {
		return FileInfo{}, false
	}
	return n.info, true
}

// Exists reports whether any node exists at path.
func (fs *FileSystem) Exists(path string) bool {
	fs.faults.fileOp()
	_, ok := fs.nodes[NormalizePath(path)]
	return ok
}

// Delete removes the node at path, reporting whether it existed. Deleting a
// directory removes its entire subtree.
func (fs *FileSystem) Delete(path string) bool {
	fs.faults.fileOp()
	norm := NormalizePath(path)
	n, ok := fs.nodes[norm]
	if !ok {
		return false
	}
	fs.ownNodes()
	delete(fs.nodes, norm)
	if n.info.Kind == FileDirectory {
		prefix := norm + `\`
		for k := range fs.nodes {
			if strings.HasPrefix(k, prefix) {
				delete(fs.nodes, k)
			}
		}
	}
	return true
}

// List returns the display paths of the direct children of the directory at
// path, sorted.
func (fs *FileSystem) List(path string) []string {
	fs.faults.fileOp()
	prefix := NormalizePath(path)
	if !strings.HasSuffix(prefix, `\`) {
		prefix += `\`
	}
	var out []string
	for k, n := range fs.nodes {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		rest := k[len(prefix):]
		if rest == "" || strings.ContainsRune(rest, '\\') {
			continue
		}
		out = append(out, n.info.Path)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i]) < strings.ToLower(out[j])
	})
	return out
}

// Walk visits every node in normalized-path order.
func (fs *FileSystem) Walk(fn func(info FileInfo)) {
	keys := make([]string, 0, len(fs.nodes))
	for k := range fs.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(fs.nodes[k].info)
	}
}

// CountFiles returns the number of regular files and devices (directories
// excluded), matching how the paper counts "files" collected by its
// public-sandbox crawler.
func (fs *FileSystem) CountFiles() int {
	n := 0
	for _, node := range fs.nodes {
		if node.info.Kind != FileDirectory {
			n++
		}
	}
	return n
}

func parentDir(path string) string {
	p := strings.ReplaceAll(path, "/", `\`)
	i := strings.LastIndexByte(p, '\\')
	if i <= 0 {
		return ""
	}
	return p[:i]
}
