package winsim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestFileSystemWriteReadDelete(t *testing.T) {
	fs := NewFileSystem()
	if err := fs.WriteFile(`C:\Users\john\doc.txt`, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, ok := fs.ReadFile(`c:\users\JOHN\DOC.TXT`)
	if !ok || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, ok)
	}
	info, ok := fs.Stat(`C:\Users\john\doc.txt`)
	if !ok || info.Kind != FileRegular || info.Size != 5 {
		t.Fatalf("Stat = %+v, %v", info, ok)
	}
	if !fs.Exists(`C:\Users`) {
		t.Error("parent directory not created")
	}
	if !fs.Delete(`C:\Users\john\doc.txt`) {
		t.Error("Delete failed")
	}
	if fs.Exists(`C:\Users\john\doc.txt`) {
		t.Error("file survived delete")
	}
}

func TestFileSystemDeviceObjects(t *testing.T) {
	fs := NewFileSystem()
	fs.AddDevice(`\\.\VBoxGuest`)
	info, ok := fs.Stat(`\\.\vboxguest`)
	if !ok || info.Kind != FileDevice {
		t.Fatalf("device Stat = %+v, %v", info, ok)
	}
	if err := fs.WriteFile(`\\.\VBoxGuest`, []byte("x")); err == nil {
		t.Error("writing a device should fail")
	}
}

func TestFileSystemDirectoryDeleteRemovesSubtree(t *testing.T) {
	fs := NewFileSystem()
	fs.Touch(`C:\tools\a\one.bin`, 1)
	fs.Touch(`C:\tools\a\two.bin`, 1)
	fs.Touch(`C:\tools\b.bin`, 1)
	if !fs.Delete(`C:\tools\a`) {
		t.Fatal("Delete dir failed")
	}
	if fs.Exists(`C:\tools\a\one.bin`) {
		t.Error("subtree file survived")
	}
	if !fs.Exists(`C:\tools\b.bin`) {
		t.Error("sibling removed")
	}
}

func TestFileSystemList(t *testing.T) {
	fs := NewFileSystem()
	fs.Touch(`C:\dir\b.txt`, 1)
	fs.Touch(`C:\dir\A.txt`, 1)
	fs.Touch(`C:\dir\sub\c.txt`, 1)
	got := fs.List(`C:\dir`)
	if len(got) != 3 { // A.txt, b.txt, sub
		t.Fatalf("List = %v", got)
	}
	if got[0] != `C:\dir\A.txt` {
		t.Errorf("sort order: %v", got)
	}
}

func TestFileSystemVolumes(t *testing.T) {
	fs := NewFileSystem()
	fs.AddVolume(&Volume{Letter: 'C', TotalBytes: 5 << 30, FreeBytes: 2 << 30})
	v := fs.VolumeFor(`c:\sample.exe`)
	if v == nil || v.TotalBytes != 5<<30 {
		t.Fatalf("VolumeFor = %+v", v)
	}
	if fs.VolumeFor(`\\.\PhysicalDrive0`) != nil {
		t.Error("device paths have no volume")
	}
	if fs.VolumeFor(`D:\x`) != nil {
		t.Error("unknown drive should have no volume")
	}
	free := v.FreeBytes
	if err := fs.WriteFile(`C:\big.bin`, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if v.FreeBytes != free-4096 {
		t.Errorf("free space not charged: %d -> %d", free, v.FreeBytes)
	}
}

func TestFileSystemCountFiles(t *testing.T) {
	fs := NewFileSystem()
	base := fs.CountFiles()
	for i := 0; i < 10; i++ {
		fs.Touch(fmt.Sprintf(`C:\f\%d.bin`, i), 1)
	}
	fs.AddDevice(`\\.\Dev0`)
	if got := fs.CountFiles(); got != base+11 {
		t.Errorf("CountFiles = %d, want %d", got, base+11)
	}
}

func TestNormalizePath(t *testing.T) {
	tests := []struct{ in, want string }{
		{`C:\Windows\System32`, `c:\windows\system32`},
		{`C:/Windows/System32/`, `c:\windows\system32`},
		{`C:`, `c:\`},
		{`C:\`, `c:\`},
		{`\\.\VBoxGuest`, `\\.\vboxguest`},
		{``, `\`},
		{`//`, `\`},
		{`D:/`, `d:\`},
		{`C:\Ünï\K`, `c:\ünï\k`},
	}
	for _, tt := range tests {
		if got := NormalizePath(tt.in); got != tt.want {
			t.Errorf("NormalizePath(%q) = %q, want %q", tt.in, got, tt.want)
		}
		if got := string(AppendNormalPath(nil, tt.in)); got != tt.want {
			t.Errorf("AppendNormalPath(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	// A stack buffer keeps the lookup key off the heap.
	m := map[string]bool{`c:\users\john\sample.exe`: true}
	allocs := testing.AllocsPerRun(100, func() {
		var buf [64]byte
		if !m[string(AppendNormalPath(buf[:0], `C:\Users\John\Sample.EXE`))] {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("AppendNormalPath lookup allocates %.0f objects, want 0", allocs)
	}
}

// Property: touching any generated path makes Exists true for upper and
// lower case variants.
func TestFileSystemCaseInsensitivityProperty(t *testing.T) {
	f := func(n uint16) bool {
		fs := NewFileSystem()
		p := fmt.Sprintf(`C:\Dir%d\File%d.Bin`, n%97, n)
		fs.Touch(p, 1)
		return fs.Exists(p) && fs.Exists(NormalizePath(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
