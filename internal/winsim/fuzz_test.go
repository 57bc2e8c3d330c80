package winsim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzNormalizePath: normalization is idempotent, lowercase, and
// slash-free for any input.
func FuzzNormalizePath(f *testing.F) {
	for _, seed := range []string{
		`C:\Windows\System32`, `c:/users/x/../y`, `\\.\VBoxGuest`, `C:`,
		``, `\`, `/`, `C:\a\`, strings.Repeat(`\x`, 50), `D:/`, `C:\Ünï\K`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		norm := NormalizePath(path)
		if NormalizePath(norm) != norm {
			t.Errorf("not idempotent: %q -> %q -> %q", path, norm, NormalizePath(norm))
		}
		if strings.ContainsRune(norm, '/') {
			t.Errorf("forward slash survived: %q", norm)
		}
		if norm != strings.ToLower(norm) {
			t.Errorf("not lowercased: %q", norm)
		}
		if got := string(AppendNormalPath([]byte("p:"), path)); got != "p:"+norm {
			t.Errorf("AppendNormalPath(%q) = %q, want %q", path, got, "p:"+norm)
		}
	})
}

// FuzzRegistryPaths: create/open/delete never panics and stays consistent
// for arbitrary path strings.
func FuzzRegistryPaths(f *testing.F) {
	for _, seed := range []string{
		`HKLM\SOFTWARE\X`, `hkcu\a\b\c`, `SOFTWARE\implicit`, ``, `\\\`,
		`HKLM`, `HKLM\` + strings.Repeat(`k\`, 30), "HKLM\\\x00weird",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		r := NewRegistry()
		k, err := r.CreateKey(path)
		if err != nil {
			// Only the empty path may fail.
			if len(splitRegPath(path)) != 0 {
				t.Errorf("CreateKey(%q) failed: %v", path, err)
			}
			return
		}
		if k == nil {
			t.Fatalf("CreateKey(%q) returned nil without error", path)
		}
		if !r.KeyExists(path) {
			t.Errorf("created key %q not found", path)
		}
		// Deleting is possible unless the path names a hive root.
		deleted := r.DeleteKey(path)
		isHiveRoot := len(splitRegPath(path)) == 0 ||
			(len(splitRegPath(path)) == 1 && func() bool {
				_, ok := hiveAliases[strings.ToLower(splitRegPath(path)[0])]
				return ok
			}())
		if deleted == isHiveRoot {
			t.Errorf("DeleteKey(%q) = %v (hive root: %v)", path, deleted, isHiveRoot)
		}
	})
}

// applyFuzzOps interprets a byte stream as a deterministic sequence of
// machine operations: file, registry, process, clock, network, and RNG
// activity. Each 3-byte chunk is (opcode, a, b); paths are derived from a
// bounded namespace so create/delete sequences interact.
func applyFuzzOps(m *Machine, data []byte) {
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i]%10, int(data[i+1]), int(data[i+2])
		path := fmt.Sprintf(`C:\fuzz\d%02d\f%02d.bin`, a%8, b%8)
		regPath := fmt.Sprintf(`HKLM\SOFTWARE\Fuzz\K%02d`, a%8)
		switch op {
		case 0:
			m.FS.Touch(path, int64(b))
		case 1:
			_ = m.FS.WriteFile(path, []byte{byte(a), byte(b)})
		case 2:
			m.FS.Delete(path)
		case 3:
			_, _ = m.Registry.CreateKey(regPath)
		case 4:
			_ = m.Registry.SetValue(regPath, fmt.Sprintf("v%d", b%4), DWordValue(uint32(b)))
		case 5:
			m.Registry.DeleteKey(regPath)
		case 6:
			p := m.SpawnProcess(fmt.Sprintf(`C:\fuzz\p%02d.exe`, a%6), "fuzz", nil)
			if b%2 == 0 {
				m.ExitProcess(p, b)
			}
		case 7:
			m.Clock.Advance(time.Duration(a*b) * time.Millisecond)
		case 8:
			_, _ = m.Net.Resolve(fmt.Sprintf("host%02d.fuzz.example", a%6))
		case 9:
			m.Rand().Int63()
		}
	}
}

// FuzzSnapshotRestore: for any operation prefix and suffix, Snapshot after
// the prefix and Restore after the suffix rewinds the machine bit for bit —
// and two machines restored from the same snapshot produce identical state
// and trace streams under a canned follow-up workload.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{6, 7, 8, 9, 1, 2})
	f.Add([]byte{}, []byte{2, 200, 9})
	f.Add([]byte{6, 0, 0, 6, 0, 1, 7, 50, 50}, []byte{})
	f.Add([]byte{4, 3, 3, 5, 3, 0, 1, 1, 1}, []byte{0, 1, 1, 2, 1, 1})
	f.Fuzz(func(t *testing.T, pre, post []byte) {
		m := NewMachine("fuzz", 11)
		m.Net.SinkholeIP = "10.0.0.1" // so Resolve mutates the DNS cache
		applyFuzzOps(m, pre)
		snap := m.Snapshot()
		want := digest(m)

		applyFuzzOps(m, post)
		m.Restore(snap)
		if got := digest(m); got != want {
			t.Fatalf("Restore did not rewind the machine:\n got: %s\nwant: %s", got, want)
		}

		// The canned specimen: a fixed op script covering every subsystem,
		// run on two machines restored from the same snapshot. State and
		// trace stream (digest includes both) must match exactly.
		canned := []byte{6, 1, 1, 0, 2, 2, 9, 0, 0, 4, 4, 4, 7, 10, 10, 8, 3, 3, 6, 5, 0, 2, 2, 2}
		m2 := NewMachine("other", 99)
		m2.Restore(snap)
		applyFuzzOps(m, canned)
		applyFuzzOps(m2, canned)
		if digest(m) != digest(m2) {
			t.Fatal("canned workload diverged between two machines restored from the same snapshot")
		}
	})
}

// FuzzFileSystemOps: touch/stat/delete stays consistent for arbitrary
// path strings.
func FuzzFileSystemOps(f *testing.F) {
	f.Add(`C:\a\b.txt`, int64(10))
	f.Add(`c:/x/y`, int64(0))
	f.Add(`\\.\Dev`, int64(1))
	f.Add(``, int64(5))
	f.Fuzz(func(t *testing.T, path string, size int64) {
		fs := NewFileSystem()
		fs.Touch(path, size)
		if !fs.Exists(path) {
			t.Errorf("touched %q but not found", path)
		}
		info, ok := fs.Stat(path)
		if !ok || info.Kind != FileRegular {
			t.Errorf("Stat(%q) = %+v, %v", path, info, ok)
		}
		if !fs.Delete(path) {
			t.Errorf("Delete(%q) failed", path)
		}
		if fs.Exists(path) {
			t.Errorf("%q survived deletion", path)
		}
	})
}
