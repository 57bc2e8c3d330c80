package winsim

import (
	"strconv"
	"testing"
	"time"

	"scarecrow/internal/trace"
)

func TestClockAdvanceAndTicks(t *testing.T) {
	c := NewClock(30*time.Minute, 2.6)
	if c.TickCount() != uint64((30 * time.Minute).Milliseconds()) {
		t.Errorf("TickCount = %d", c.TickCount())
	}
	c.Advance(500 * time.Millisecond)
	if c.Now() != 500*time.Millisecond {
		t.Errorf("Now = %v", c.Now())
	}
	before := c.Cycles()
	c.AdvanceCycles(2600)
	if got := c.Cycles() - before; got < 2599 || got > 2601 {
		t.Errorf("cycle delta = %d, want ~2600", got)
	}
}

func TestClockDeadlinePanics(t *testing.T) {
	c := NewClock(0, 2.6)
	c.SetDeadline(time.Minute)
	defer func() {
		r := recover()
		be, ok := r.(BudgetExceeded)
		if !ok {
			t.Fatalf("recover = %v, want BudgetExceeded", r)
		}
		if be.Deadline != time.Minute {
			t.Errorf("deadline = %v", be.Deadline)
		}
		if c.Now() != time.Minute {
			t.Errorf("clock not pinned to deadline: %v", c.Now())
		}
	}()
	c.Advance(2 * time.Minute)
	t.Fatal("Advance past deadline did not panic")
}

func TestMachineSpawnAndExit(t *testing.T) {
	m := NewBareMetalSandbox(1)
	parent := m.Procs.FindByImage("explorer.exe")[0]
	p := m.SpawnProcess(`C:\Users\john\mal.exe`, "mal.exe", parent)
	if p.ParentPID != parent.PID {
		t.Errorf("ParentPID = %d, want %d", p.ParentPID, parent.PID)
	}
	if p.PEB.NumberOfProcessors != m.HW.NumCores {
		t.Errorf("PEB cores = %d, want %d", p.PEB.NumberOfProcessors, m.HW.NumCores)
	}
	if p.SpawnDepth != 1 {
		t.Errorf("SpawnDepth = %d", p.SpawnDepth)
	}
	creates := m.Tracer.ByKind(trace.KindProcessCreate)
	if len(creates) != 1 || creates[0].Target != p.Image {
		t.Fatalf("creates = %v", creates)
	}
	m.ExitProcess(p, 0)
	if p.State != ProcessExited {
		t.Error("process not exited")
	}
	if len(m.Tracer.ByKind(trace.KindProcessExit)) != 1 {
		t.Error("missing exit event")
	}
	m.ExitProcess(p, 1) // idempotent
	if len(m.Tracer.ByKind(trace.KindProcessExit)) != 1 {
		t.Error("double exit recorded")
	}
}

// The exit event's Detail reads "code=<n>" whether or not the code has a
// constant rendering.
func TestExitDetail(t *testing.T) {
	for _, code := range []int{0, 1, 2, 137, 259, -1} {
		if got, want := exitDetail(code), "code="+strconv.Itoa(code); got != want {
			t.Errorf("exitDetail(%d) = %q, want %q", code, got, want)
		}
	}
}

func TestMachineSleepFactor(t *testing.T) {
	m := NewMachine("test", 1)
	m.SleepFactor = 0.1
	start := m.Clock.Now()
	m.Sleep(time.Second)
	if got := m.Clock.Now() - start; got != 100*time.Millisecond {
		t.Errorf("sleep advanced %v, want 100ms", got)
	}
}

func TestMouseModel(t *testing.T) {
	static := NewMouse(false, 10, 20)
	x1, y1 := static.CursorAt(1000)
	x2, y2 := static.CursorAt(9000)
	if x1 != x2 || y1 != y2 {
		t.Error("static mouse moved")
	}
	active := NewMouse(true, 10, 20)
	ax1, ay1 := active.CursorAt(1000)
	ax2, ay2 := active.CursorAt(9000)
	if ax1 == ax2 && ay1 == ay2 {
		t.Error("active mouse did not move")
	}
}

func TestWindowManagerFind(t *testing.T) {
	wm := NewWindowManager()
	wm.Add(Window{Class: "OLLYDBG", Title: "OllyDbg - [CPU]", PID: 42})
	if _, ok := wm.Find("ollydbg", ""); !ok {
		t.Error("class match failed")
	}
	if _, ok := wm.Find("", "ollydbg - [cpu]"); !ok {
		t.Error("title match failed")
	}
	if _, ok := wm.Find("WinDbgFrameClass", ""); ok {
		t.Error("unexpected match")
	}
	if _, ok := wm.Find("", ""); ok {
		t.Error("empty query must not match")
	}
	wm.RemoveByPID(42)
	if _, ok := wm.Find("OLLYDBG", ""); ok {
		t.Error("window survived RemoveByPID")
	}
}

func TestNetworkResolutionAndSinkhole(t *testing.T) {
	n := NewNetwork()
	n.AddRecord("example.com", "93.184.216.34")
	if addr, ok := n.Resolve("EXAMPLE.COM"); !ok || addr != "93.184.216.34" {
		t.Fatalf("Resolve = %q, %v", addr, ok)
	}
	if _, ok := n.Resolve("iuqerfsodp9ifjaposdfjhgosurijfaewrwergwea.com"); ok {
		t.Fatal("NX domain resolved without sinkhole")
	}
	n.SinkholeIP = "10.0.0.1"
	addr, ok := n.Resolve("iuqerfsodp9ifjaposdfjhgosurijfaewrwergwea.com")
	if !ok || addr != "10.0.0.1" {
		t.Fatalf("sinkhole Resolve = %q, %v", addr, ok)
	}
	if !n.HTTPGet("10.0.0.1") {
		t.Error("sinkhole address must answer HTTP")
	}
	if n.HTTPGet("203.0.113.9") {
		t.Error("random address answered HTTP")
	}
	if n.Cache.Len() != 2 {
		t.Errorf("DNS cache = %d entries, want 2", n.Cache.Len())
	}
}

func TestHardwareCPUIDAndRDTSC(t *testing.T) {
	m := NewCuckooSandbox(1, false)
	c1 := m.HW.RDTSC(m.Clock)
	res := m.HW.CPUID(m.Clock)
	c2 := m.HW.RDTSC(m.Clock)
	if !res.HypervisorBit || res.HypervisorVendor != "VBoxVBoxVBox" {
		t.Errorf("CPUID = %+v", res)
	}
	if c2-c1 < 4000 {
		t.Errorf("CPUID cost %d cycles, want >= 4000 on stock VM", c2-c1)
	}
	bm := NewBareMetalSandbox(1)
	b1 := bm.HW.RDTSC(bm.Clock)
	bm.HW.CPUID(bm.Clock)
	b2 := bm.HW.RDTSC(bm.Clock)
	if b2-b1 > 1000 {
		t.Errorf("bare-metal CPUID cost %d cycles, want < 1000", b2-b1)
	}
}

func TestHasVMMAC(t *testing.T) {
	hw := &Hardware{MACs: []string{"08:00:27:11:22:33"}}
	if !hw.HasVMMAC() {
		t.Error("VirtualBox MAC not detected")
	}
	hw.MACs = []string{"3c:97:0e:00:00:01"}
	if hw.HasVMMAC() {
		t.Error("physical MAC flagged")
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog()
	l.Append("SCM", 100)
	l.Append("Disk", 20)
	l.Append("SCM", 5)
	l.Append("noop", 0)
	if l.Count() != 125 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.SourceCount() != 2 {
		t.Errorf("SourceCount = %d", l.SourceCount())
	}
}

func TestProfilesDeterministic(t *testing.T) {
	for _, name := range []ProfileName{
		ProfileCleanBareMetal, ProfileBareMetalSandbox, ProfileCuckooSandbox,
		ProfileCuckooHardened, ProfileEndUser, ProfileVirusTotal, ProfileMalwr,
	} {
		t.Run(string(name), func(t *testing.T) {
			a := NewProfileMachine(name, 7)
			b := NewProfileMachine(name, 7)
			if a.FS.CountFiles() != b.FS.CountFiles() {
				t.Error("file counts differ across identical builds")
			}
			if a.Registry.CountKeys() != b.Registry.CountKeys() {
				t.Error("registry counts differ across identical builds")
			}
			if len(a.Procs.All()) != len(b.Procs.All()) {
				t.Error("process counts differ across identical builds")
			}
		})
	}
}

func TestProfileDistinctives(t *testing.T) {
	stock := NewCuckooSandbox(1, false)
	if !stock.Registry.KeyExists(`HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`) {
		t.Error("stock cuckoo missing guest additions key")
	}
	if !stock.FS.Exists(`C:\Windows\System32\drivers\VBoxMouse.sys`) {
		t.Error("stock cuckoo missing VBoxMouse.sys")
	}
	if stock.Net.SinkholeIP == "" {
		t.Error("cuckoo must sinkhole NX domains")
	}
	hard := NewCuckooSandbox(1, true)
	if hard.HW.HypervisorPresent {
		t.Error("hardened guest must mask the hypervisor bit")
	}
	if !hard.Registry.KeyExists(`HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`) {
		t.Error("hardening must not remove guest additions")
	}
	eu := NewEndUserMachine(1)
	if eu.Net.SinkholeIP != "" {
		t.Error("end-user machine must not sinkhole NX domains")
	}
	if !eu.HW.HasVMMAC() {
		t.Error("end-user machine should expose the VMware vmnet MAC")
	}
	malwr := NewMalwrSandbox(1)
	if v := malwr.FS.VolumeFor(`C:\`); v.TotalBytes != 5<<30 {
		t.Errorf("malwr disk = %d bytes, want 5GB", v.TotalBytes)
	}
}

func TestOSVersionAtLeast(t *testing.T) {
	if Windows7.AtLeast(6, 2) {
		t.Error("Windows 7 reports >= 6.2")
	}
	if !Windows7.AtLeast(6, 1) || !Windows7.AtLeast(5, 1) {
		t.Error("Windows 7 fails >= 6.1 / >= 5.1")
	}
}

func TestApplyUsageCounts(t *testing.T) {
	m := NewMachine("test", 1)
	m.HW.UserName = "u"
	u := SandboxUsage()
	ApplyUsage(m, u)
	if m.Net.Cache.Len() != u.DNSCacheEntries {
		t.Errorf("dns cache = %d, want %d", m.Net.Cache.Len(), u.DNSCacheEntries)
	}
	runKey, ok := m.Registry.OpenKey(RegRunKey)
	if !ok || runKey.ValueCount() != u.AutoRunPrograms {
		t.Errorf("run entries = %v", runKey)
	}
	dev, ok := m.Registry.OpenKey(RegDeviceClassesKey)
	if !ok || dev.SubkeyCount() != u.DeviceClasses {
		t.Errorf("device classes = %d, want %d", dev.SubkeyCount(), u.DeviceClasses)
	}
	if m.RegistryQuotaUsed != uint64(u.RegistryQuotaMB)<<20 {
		t.Errorf("quota = %d", m.RegistryQuotaUsed)
	}
}

func TestProcessModuleList(t *testing.T) {
	m := NewBareMetalSandbox(1)
	p := m.SpawnProcess(`C:\a.exe`, "", nil)
	if !p.HasModule("ntdll.dll") || !p.HasModule("KERNEL32.DLL") {
		t.Error("default modules missing")
	}
	if !p.LoadModule("user32.dll") {
		t.Error("new module not loaded")
	}
	if p.LoadModule("USER32.dll") {
		t.Error("duplicate module loaded twice")
	}
	got, ok := m.Procs.Get(p.PID)
	if !ok || got != p {
		t.Error("Get by PID failed")
	}
	if _, ok := m.Procs.Get(999999); ok {
		t.Error("bogus PID found")
	}
	names := m.Procs.ImageNames()
	found := false
	for _, n := range names {
		if n == "a.exe" {
			found = true
		}
	}
	if !found {
		t.Errorf("ImageNames = %v", names)
	}
}

func TestNetworkAuxiliary(t *testing.T) {
	n := NewNetwork()
	n.AddRecord("real.example", "198.51.100.1")
	if !n.Exists("REAL.example") {
		t.Error("Exists case-insensitivity")
	}
	if n.Exists("fake.example") {
		t.Error("NX domain exists")
	}
	n.MarkReachable("10.9.9.9")
	if !n.HTTPGet("10.9.9.9") {
		t.Error("MarkReachable not honored")
	}
	n.Cache.Add("a.example")
	n.Cache.Add("b.example")
	n.Cache.Add("a.example")
	if got := n.Cache.Entries(); len(got) != 2 || got[0] != "a.example" {
		t.Errorf("cache entries = %v", got)
	}
	l := NewEventLog()
	l.Append("S1", 3)
	l.Append("S2", 1)
	if got := l.Sources(); len(got) != 2 || got[0] != "S1" {
		t.Errorf("sources = %v", got)
	}
}

func TestRegistryValueKindsAndNames(t *testing.T) {
	r := NewRegistry()
	if err := r.SetValue(`HKLM\V`, "q", QWordValue(1<<40)); err != nil {
		t.Fatal(err)
	}
	v, ok := r.QueryValue(`HKLM\V`, "q")
	if !ok || v.Type != RegQWord || v.Num != 1<<40 {
		t.Errorf("qword = %+v", v)
	}
	if err := r.SetValue(`HKLM\V`, "b", BinaryValue([]byte{1, 2})); err != nil {
		t.Fatal(err)
	}
	k, _ := r.OpenKey(`HKLM\V`)
	if k.Name() != "V" {
		t.Errorf("Name = %q", k.Name())
	}
	names := k.ValueNames()
	if len(names) != 2 || names[0] != "b" || names[1] != "q" {
		t.Errorf("ValueNames = %v", names)
	}
}

func TestFileSystemWalkAndVolumes(t *testing.T) {
	fs := NewFileSystem()
	fs.Touch(`C:\x\a.bin`, 1)
	fs.AddVolume(&Volume{Letter: 'D', TotalBytes: 1 << 30, FreeBytes: 1 << 29})
	vols := fs.Volumes()
	if len(vols) != 2 || vols[0].Letter != 'C' || vols[1].Letter != 'D' {
		t.Errorf("volumes = %v", vols)
	}
	var paths []string
	fs.Walk(func(info FileInfo) { paths = append(paths, info.Path) })
	if len(paths) < 2 {
		t.Errorf("walk visited %d nodes", len(paths))
	}
}

func TestClockDeadlineAccessorAndMachineRand(t *testing.T) {
	c := NewClock(0, 0) // zero rate falls back to the default
	c.SetDeadline(time.Second)
	if c.Deadline() != time.Second {
		t.Error("Deadline accessor")
	}
	c.SetDeadline(0)
	c.Advance(time.Hour) // unbounded again
	m := NewMachine("t", 5)
	if m.Rand() == nil {
		t.Error("machine rand nil")
	}
	a := m.Rand().Int63()
	b := NewMachine("t", 5).Rand().Int63()
	if a != b {
		t.Error("seeded rand not deterministic")
	}
}

func TestWindowClasses(t *testing.T) {
	wm := NewWindowManager()
	wm.Add(Window{Class: "B", PID: 1})
	wm.Add(Window{Class: "a", PID: 2})
	wm.Add(Window{Class: "b", PID: 3}) // dedup case-insensitively
	if got := wm.Classes(); len(got) != 2 {
		t.Errorf("classes = %v", got)
	}
}
