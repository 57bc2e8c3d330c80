package winapi

import (
	"testing"
	"time"

	"scarecrow/internal/winsim"
)

func TestRegistryAPIs(t *testing.T) {
	_, ctx := newTestSystem(t)
	const key = `HKLM\SOFTWARE\TestVendor\App`
	if st := ctx.RegCreateKeyEx(key); !st.OK() {
		t.Fatal(st)
	}
	if st := ctx.RegSetValueEx(key, "Version", winsim.StringValue("1.0")); !st.OK() {
		t.Fatal(st)
	}
	v, st := ctx.RegQueryValueEx(key, "Version")
	if !st.OK() || v.Str != "1.0" {
		t.Fatalf("query = %+v, %v", v, st)
	}
	if _, st := ctx.NtQueryValueKey(key, "Missing"); st.OK() {
		t.Error("missing value should fail")
	}
	info, st := ctx.NtQueryKey(`HKLM\SOFTWARE\TestVendor`)
	if !st.OK() || info.SubkeyCount != 1 {
		t.Errorf("NtQueryKey = %+v, %v", info, st)
	}
	name, st := ctx.RegEnumKeyEx(`HKLM\SOFTWARE\TestVendor`, 0)
	if !st.OK() || name != "App" {
		t.Errorf("enum = %q, %v", name, st)
	}
	if _, st := ctx.RegEnumKeyEx(`HKLM\SOFTWARE\TestVendor`, 1); st != StatusNoMoreItems {
		t.Errorf("enum past end = %v", st)
	}
	if st := ctx.RegDeleteKey(key); !st.OK() {
		t.Error(st)
	}
	if st := ctx.NtOpenKeyEx(key); st.OK() {
		t.Error("deleted key opened")
	}
}

func TestFileAPIs(t *testing.T) {
	_, ctx := newTestSystem(t)
	if st := ctx.WriteFile(`C:\Users\john\a.txt`, []byte("data")); !st.OK() {
		t.Fatal(st)
	}
	data, st := ctx.ReadFile(`C:\Users\john\a.txt`)
	if !st.OK() || string(data) != "data" {
		t.Fatalf("read = %q, %v", data, st)
	}
	info, st := ctx.NtQueryAttributesFile(`C:\Users\john\a.txt`)
	if !st.OK() || info.Size != 4 {
		t.Errorf("attributes = %+v, %v", info, st)
	}
	if st := ctx.DeleteFile(`C:\Users\john\a.txt`); !st.OK() {
		t.Error(st)
	}
	if st := ctx.CreateFile(`C:\Users\john\a.txt`); st.OK() {
		t.Error("deleted file opened")
	}
	names, st := ctx.FindFirstFile(`C:\Windows\System32\*`)
	if !st.OK() || len(names) == 0 {
		t.Errorf("FindFirstFile = %v, %v", names, st)
	}
}

func TestDiskAndVolumeAPIs(t *testing.T) {
	_, ctx := newTestSystem(t)
	disk, st := ctx.GetDiskFreeSpaceEx(`C:\`)
	if !st.OK() || disk.TotalBytes != 500<<30 {
		t.Errorf("disk = %+v, %v", disk, st)
	}
	vol, st := ctx.GetVolumeInformation(`C:\`)
	if !st.OK() || vol.FileSystem != "NTFS" {
		t.Errorf("vol = %+v, %v", vol, st)
	}
	if _, st := ctx.GetDiskFreeSpaceEx(`Z:\`); st.OK() {
		t.Error("unknown drive succeeded")
	}
	dt, st := ctx.GetDriveType(`C:\`)
	if !st.OK() || dt != 3 {
		t.Errorf("drive type = %d, %v", dt, st)
	}
}

func TestSysinfoAPIs(t *testing.T) {
	_, ctx := newTestSystem(t)
	if si := ctx.GetSystemInfo(); si.NumberOfProcessors != 4 {
		t.Errorf("cores = %d", si.NumberOfProcessors)
	}
	if mem := ctx.GlobalMemoryStatusEx(); mem.TotalPhysBytes != 8<<30 {
		t.Errorf("ram = %d", mem.TotalPhysBytes)
	}
	if name := ctx.GetComputerName(); name != "ANALYSIS-07" {
		t.Errorf("computer = %q", name)
	}
	if user := ctx.GetUserName(); user != "john" {
		t.Errorf("user = %q", user)
	}
	if ver := ctx.GetVersionEx(); ver.Major != 6 || ver.Minor != 1 {
		t.Errorf("version = %+v", ver)
	}
	if _, st := ctx.IsNativeVhdBoot(); st != StatusNotSupported {
		t.Errorf("IsNativeVhdBoot on Win7 = %v, want NOT_SUPPORTED", st)
	}
	quota, st := ctx.NtQuerySystemInformation(SystemRegistryQuotaInformation)
	if !st.OK() || quota != 53<<20 {
		t.Errorf("quota = %d, %v", quota, st)
	}
	if adapters := ctx.GetAdaptersInfo(); len(adapters) != 1 {
		t.Errorf("adapters = %v", adapters)
	}
}

func TestWMIQueryAnswersIdentity(t *testing.T) {
	m := winsim.NewCuckooSandbox(1, false)
	sys := NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\a.exe`, "", nil))
	if s, st := ctx.WMIQuery("Win32_ComputerSystem", "Model"); !st.OK() || s != "VirtualBox" {
		t.Errorf("WMI model = %q, %v", s, st)
	}
	if _, st := ctx.WMIQuery("Win32_Foo", "Bar"); st.OK() {
		t.Error("unknown WMI class succeeded")
	}
}

func TestModuleAPIs(t *testing.T) {
	_, ctx := newTestSystem(t)
	if _, st := ctx.GetModuleHandle("SbieDll.dll"); st.OK() {
		t.Error("SbieDll reported loaded")
	}
	if _, st := ctx.GetModuleHandle("kernel32.dll"); !st.OK() {
		t.Error("kernel32 missing")
	}
	if _, st := ctx.LoadLibrary("user32.dll"); !st.OK() {
		t.Error("user32 load failed")
	}
	if !ctx.P.HasModule("user32.dll") {
		t.Error("module list not updated")
	}
	if _, st := ctx.LoadLibrary("sbiedll.dll"); st.OK() {
		t.Error("nonexistent DLL loaded")
	}
	if _, st := ctx.GetProcAddress("kernel32.dll", "IsDebuggerPresent"); !st.OK() {
		t.Error("catalogued export did not resolve")
	}
	if _, st := ctx.GetProcAddress("kernel32.dll", "wine_get_unix_file_name"); st.OK() {
		t.Error("wine export resolved on Windows")
	}
	if _, st := ctx.GetProcAddress("notloaded.dll", "X"); st != StatusInvalidHandle {
		t.Error("unloaded module accepted")
	}
}

func TestDebugAndTimingAPIs(t *testing.T) {
	_, ctx := newTestSystem(t)
	if ctx.IsDebuggerPresent() {
		t.Error("debugger reported on clean machine")
	}
	if ctx.CheckRemoteDebuggerPresent() {
		t.Error("remote debugger reported")
	}
	if port, st := ctx.QueryDebugPort(); !st.OK() || port != 0 {
		t.Errorf("debug port = %d, %v", port, st)
	}
	t0 := ctx.GetTickCount()
	ctx.Sleep(500 * time.Millisecond)
	t1 := ctx.GetTickCount()
	if d := t1 - t0; d < 500 || d > 510 {
		t.Errorf("tick delta across 500ms sleep = %d", d)
	}
	peb := ctx.ReadPEB()
	if peb.NumberOfProcessors != 4 || peb.BeingDebugged {
		t.Errorf("PEB = %+v", peb)
	}
}

func TestDirectSyscallBypassesHooks(t *testing.T) {
	sys, ctx := newTestSystem(t)
	const key = `HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`
	err := sys.InstallHook(ctx.P.PID, "NtOpenKeyEx", func(c *Context, call *Call) Result {
		return Result{Status: StatusSuccess} // deceive: key "exists"
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ctx.NtOpenKeyEx(key); !st.OK() {
		t.Fatal("hooked path should be deceived")
	}
	if got := ctx.DirectSyscall("NtOpenKeyEx", key); got != StatusFileNotFound {
		t.Errorf("direct syscall = %v, want genuine FILE_NOT_FOUND", got)
	}
	if got := ctx.DirectSyscall("NtSomethingElse"); got != StatusNotSupported {
		t.Errorf("unknown syscall = %v", got)
	}
}

func TestNetworkAPIs(t *testing.T) {
	m := winsim.NewEndUserMachine(1)
	sys := NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\a.exe`, "", nil))
	if _, st := ctx.DnsQuery("site001.example.com"); !st.OK() {
		t.Error("real domain failed")
	}
	if _, st := ctx.DnsQuery("xkcd1953substitute.invalid"); st.OK() {
		t.Error("NX domain resolved on end-user machine")
	}
	mc := winsim.NewCuckooSandbox(1, false)
	sysc := NewSystem(mc)
	cctx := sysc.Context(sysc.Launch(`C:\a.exe`, "", nil))
	addr, st := cctx.DnsQuery("xkcd1953substitute.invalid")
	if !st.OK() || addr != mc.Net.SinkholeIP {
		t.Errorf("sandbox sinkhole = %q, %v", addr, st)
	}
	if code, st := cctx.InternetOpenUrl(addr); !st.OK() || code != 200 {
		t.Errorf("sinkhole HTTP = %d, %v", code, st)
	}
}

func TestWindowAPIs(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	m.Windows.Add(winsim.Window{Class: "OLLYDBG", Title: "OllyDbg", PID: 1})
	sys := NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\a.exe`, "", nil))
	if _, st := ctx.FindWindow("OLLYDBG", ""); !st.OK() {
		t.Error("FindWindow failed")
	}
	if _, st := ctx.FindWindow("WinDbgFrameClass", ""); st.OK() {
		t.Error("nonexistent window found")
	}
	classes := ctx.EnumWindows()
	if len(classes) < 2 {
		t.Errorf("EnumWindows = %v", classes)
	}
}

func TestGetCursorPosThroughAPI(t *testing.T) {
	m := winsim.NewEndUserMachine(1)
	m.Mouse = winsim.NewMouse(true, 100, 100)
	sys := NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\a.exe`, "", nil))
	x1, y1 := ctx.GetCursorPos()
	ctx.Sleep(2 * time.Second)
	x2, y2 := ctx.GetCursorPos()
	if x1 == x2 && y1 == y2 {
		t.Error("active mouse static through API")
	}
}

func TestEvtNextPaging(t *testing.T) {
	_, ctx := newTestSystem(t)
	page, total := ctx.EvtNext(0, 100)
	if total != 8000 {
		t.Errorf("total events = %d, want 8000 (sandbox usage)", total)
	}
	if len(page) != 100 {
		t.Errorf("page = %d entries", len(page))
	}
	if _, total2 := ctx.EvtNext(total, 100); total2 != total {
		t.Error("offset past end changed total")
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusSuccess.String() != "SUCCESS" || !StatusSuccess.OK() {
		t.Error("success formatting")
	}
	if StatusFileNotFound.String() != "ERROR_FILE_NOT_FOUND" {
		t.Error("file-not-found formatting")
	}
	if Status(424242).String() != "ERROR_424242" {
		t.Error("unknown status formatting")
	}
}

func TestFindFirstFileWildcards(t *testing.T) {
	_, ctx := newTestSystem(t)
	for _, f := range []string{`C:\docs\a.docx`, `C:\docs\b.docx`, `C:\docs\c.xlsx`, `C:\docs\ab.txt`} {
		if st := ctx.WriteFile(f, []byte("x")); !st.OK() {
			t.Fatal(st)
		}
	}
	tests := []struct {
		pattern string
		want    int
	}{
		{`C:\docs\*`, 4},
		{`C:\docs\*.docx`, 2},
		{`C:\docs\*.DOCX`, 2}, // case-insensitive
		{`C:\docs\?.docx`, 2},
		{`C:\docs\a*`, 2}, // a.docx, ab.txt
		{`C:\docs\a.docx`, 1},
		{`C:\docs\*.pdf`, 0},
	}
	for _, tt := range tests {
		names, st := ctx.FindFirstFile(tt.pattern)
		if tt.want == 0 {
			if st.OK() {
				t.Errorf("%q matched %v", tt.pattern, names)
			}
			continue
		}
		if !st.OK() || len(names) != tt.want {
			t.Errorf("%q -> %d matches (%v), want %d", tt.pattern, len(names), st, tt.want)
		}
	}
}

func TestMatchFoldEdgeCases(t *testing.T) {
	tests := []struct {
		p, s string
		want bool
	}{
		{"*", "", true},
		{"", "", true},
		{"", "x", false},
		{"**a*", "bca", true},
		{"?*?", "ab", true},
		{"?*?", "a", false},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "aXXcYYb", false},
	}
	for _, tt := range tests {
		if got := matchFold(tt.p, tt.s); got != tt.want {
			t.Errorf("matchFold(%q, %q) = %v", tt.p, tt.s, got)
		}
	}
}
