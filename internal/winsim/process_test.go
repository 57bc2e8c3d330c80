package winsim

import (
	"math/rand"
	"strings"
	"testing"
)

// HasModule compares names as strings.ToLower does: the ASCII fast path
// must agree with it on mixed case, and the non-ASCII fallback must keep
// its answers where lowering changes a rune's length (the Kelvin sign
// lowers to ASCII 'k', U+0130 to ASCII 'i').
func TestHasModuleCaseFold(t *testing.T) {
	for _, tc := range []struct {
		loaded, probe string
		want          bool
	}{
		{"kernel32.dll", "KERNEL32.DLL", true},
		{"Kernel32.Dll", "kernel32.dll", true},
		{"ntdll.dll", "ntdll.dl", false},
		{"ntdll.dl", "ntdll.dll", false},
		{"user32.dll", "user33.dll", false},
		{"a@b.dll", "a`b.dll", false}, // '@' and '`' sit next to 'A' and 'a'
		{"[x].dll", "{x}.dll", false},
		{"", "", true},
		{"", "x.dll", false},
		{"ÄBC.dll", "äbc.dll", true},
		{"äbc.dll", "ÄBC.DLL", true},
		{"äbc.dll", "öbc.dll", false},
		{"\u212Aernel32.dll", "kernel32.dll", true},
		{"kernel32.dll", "\u212Aernel32.DLL", true},
		{"\u0130.dll", "i.dll", true},
		{"x\u212A.dll", "xk", false},
		{"ΣΊΣΥΦΟΣ.dll", "σίσυφοσ.dll", true},
		{"bad\xffname.dll", "BAD\xffNAME.dll", true},
		{"bad\xffname.dll", "bad\xfename.dll", true}, // both lower to U+FFFD
	} {
		if ref := strings.ToLower(tc.loaded) == strings.ToLower(tc.probe); ref != tc.want {
			t.Fatalf("table row %q/%q: strings.ToLower says %v", tc.loaded, tc.probe, ref)
		}
		p := &Process{Modules: []string{"other.dll", tc.loaded}}
		if got := p.HasModule(tc.probe); got != tc.want {
			t.Errorf("HasModule(%q) with %q loaded = %v, want %v", tc.probe, tc.loaded, got, tc.want)
		}
	}
}

func TestHasModuleDoesNotAllocate(t *testing.T) {
	p := &Process{Modules: []string{"ntdll.dll", "KERNEL32.DLL", "Scarecrow.dll"}}
	if got := testing.AllocsPerRun(100, func() { p.HasModule("scarecrow.DLL") }); got != 0 {
		t.Errorf("HasModule on ASCII names allocates %.0f objects", got)
	}
}

// The table answers Get only for the PIDs it minted: 4, 8, 12, … up to the
// last one created.
func TestProcessTableGetRejectsUnmintedPIDs(t *testing.T) {
	pt := NewProcessTable()
	var made []*Process
	for i := 0; i < 5; i++ {
		made = append(made, pt.Create(`C:\p.exe`, "p", 4, 0))
	}
	for i, p := range made {
		if p.PID != 4*(i+1) {
			t.Fatalf("process %d minted PID %d, want %d", i, p.PID, 4*(i+1))
		}
		if got, ok := pt.Get(p.PID); !ok || got != p {
			t.Errorf("Get(%d) = %v, %v", p.PID, got, ok)
		}
	}
	for _, pid := range []int{0, 2, 6, -4, -1, 24, 28, 90000, 1 << 40} {
		if p, ok := pt.Get(pid); ok || p != nil {
			t.Errorf("Get(%d) = %v, %v; the table never minted it", pid, p, ok)
		}
		if _, ok := pt.slot(pid); ok {
			t.Errorf("slot(%d) ok; the table never minted it", pid)
		}
	}
}

// Clones own their process tables: creating or mutating a process on one
// side never shows on the other, and each side keeps minting PIDs where
// the snapshot left off.
func TestCloneProcessTablesIndependent(t *testing.T) {
	template := NewBareMetalSandbox(1).Snapshot()
	a, b := template.Clone(1), template.Clone(1)
	n := len(template.m.Procs.All())

	pa := a.SpawnProcess(`C:\a.exe`, "a", nil)
	a.Procs.All()[0].State = ProcessExited
	pb := b.SpawnProcess(`C:\b.exe`, "b", nil)
	if pa.PID != pb.PID || pa.PID != 4*(n+1) {
		t.Fatalf("clones minted PIDs %d and %d after %d processes, want %d", pa.PID, pb.PID, n, 4*(n+1))
	}
	if got, _ := b.Procs.Get(pb.PID); got != pb || got.Image != `C:\b.exe` {
		t.Errorf("clone B's PID %d resolves to %+v", pb.PID, got)
	}
	if got, _ := a.Procs.Get(pa.PID); got != pa || got.Image != `C:\a.exe` {
		t.Errorf("clone A's PID %d resolves to %+v", pa.PID, got)
	}
	if _, ok := template.m.Procs.Get(pa.PID); ok || len(template.m.Procs.All()) != n {
		t.Error("a clone's new process reached the template's table")
	}
	if b.Procs.All()[0].State == ProcessExited || template.m.Procs.All()[0].State == ProcessExited {
		t.Error("mutating a process in clone A reached clone B or the template")
	}
}

// A PIDMap reads exactly like a map[int]T whatever PIDs it sees and
// whenever it binds: minted, not yet minted, never minted, and stored
// before the table minted them.
func TestPIDMapMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := NewProcessTable()
		for i := 0; i < 8; i++ {
			pt.Create(`C:\p.exe`, "p", 4, 0)
		}
		var m PIDMap[int]
		ref := map[int]int{}
		bindAt := rng.Intn(50)
		for step := 0; step < 400; step++ {
			if step == bindAt {
				m.Bind(pt)
			}
			if rng.Intn(8) == 0 {
				pt.Create(`C:\p.exe`, "p", 4, 0)
			}
			var pid int
			switch rng.Intn(4) {
			case 0:
				pid = 4 * (1 + rng.Intn(80)) // minted now or later
			case 1:
				pid = 90000 + 4*rng.Intn(4) // decoys
			case 2:
				pid = rng.Intn(40) - 8 // odd, zero, negative
			default:
				pid = 4 * (1 + rng.Intn(len(pt.procs)))
			}
			if rng.Intn(3) == 0 {
				v := rng.Intn(3) // 0 deletes
				m.Set(pid, v)
				if v == 0 {
					delete(ref, pid)
				} else {
					ref[pid] = v
				}
			}
			if got := m.Get(pid); got != ref[pid] {
				t.Fatalf("seed %d step %d: Get(%d) = %d, map says %d", seed, step, pid, got, ref[pid])
			}
			if m.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, map has %d", seed, step, m.Len(), len(ref))
			}
		}
		for pid, v := range ref {
			if got := m.Get(pid); got != v {
				t.Fatalf("seed %d: final Get(%d) = %d, want %d", seed, pid, got, v)
			}
		}
	}
}
