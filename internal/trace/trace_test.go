package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ev(kind Kind, image, target string) Event {
	return Event{Kind: kind, PID: 100, Image: image, Target: target, Success: true}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(KindProcessCreate, `C:\a.exe`, `C:\b.exe`))
	r.Record(Event{Kind: KindFileWrite, Time: 2 * time.Second, PID: 100, Image: `C:\a.exe`, Target: `C:\x.txt`, Success: true})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := len(r.ByKind(KindFileWrite)); got != 1 {
		t.Errorf("ByKind = %d", got)
	}
	if got := len(r.ByPID(100)); got != 2 {
		t.Errorf("ByPID = %d", got)
	}
	if got := len(r.Since(time.Second)); got != 1 {
		t.Errorf("Since = %d", got)
	}
	events := r.Events()
	events[0].PID = 999 // mutation must not leak back
	if r.Events()[0].PID != 100 {
		t.Error("Events did not copy")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset failed")
	}
}

func TestSummarizeSelfSpawnsVsChildren(t *testing.T) {
	events := []Event{
		ev(KindProcessCreate, `C:\mal.exe`, `C:\mal.exe`),
		ev(KindProcessCreate, `C:\mal.exe`, `C:\Users\x\MAL.EXE`), // self-spawn, case/path differ
		ev(KindProcessCreate, `C:\mal.exe`, `C:\Windows\svchost.exe`),
		ev(KindFileWrite, `C:\mal.exe`, `C:\evil.dll`),
		ev(KindRegSetValue, `C:\mal.exe`, `HKLM\Software\Run`),
		{Kind: KindFileWrite, PID: 1, Image: `C:\mal.exe`, Target: `C:\fail.txt`, Success: false},
	}
	s := Summarize(events)
	if s.SelfSpawns != 2 {
		t.Errorf("SelfSpawns = %d, want 2", s.SelfSpawns)
	}
	if s.ProcessesCreated["svchost.exe"] != 1 {
		t.Errorf("ProcessesCreated = %v", s.ProcessesCreated)
	}
	if len(s.FilesWritten) != 1 {
		t.Errorf("FilesWritten = %v (failed writes must not count)", s.FilesWritten)
	}
	if s.Mutations() != 3 { // svchost + evil.dll + reg
		t.Errorf("Mutations = %d, want 3", s.Mutations())
	}
}

func TestCompareDiff(t *testing.T) {
	baseline := Summarize([]Event{
		ev(KindProcessCreate, `C:\mal.exe`, `svchost.exe`),
		ev(KindFileWrite, `C:\mal.exe`, `C:\evil.dll`),
		ev(KindFileDelete, `C:\mal.exe`, `C:\mal.exe`),
		ev(KindRegSetValue, `C:\mal.exe`, `HKLM\Run`),
		ev(KindProcessInject, `C:\mal.exe`, `explorer.exe`),
	})
	protected := Summarize([]Event{
		ev(KindRegSetValue, `C:\mal.exe`, `HKLM\Run`),
	})
	d := Compare(baseline, protected)
	if d.Empty() {
		t.Fatal("diff should not be empty")
	}
	if len(d.MissingProcesses) != 1 || d.MissingProcesses[0] != "svchost.exe" {
		t.Errorf("MissingProcesses = %v", d.MissingProcesses)
	}
	if len(d.MissingFileWrites) != 1 || len(d.MissingFileDeletes) != 1 {
		t.Errorf("file diffs = %v / %v", d.MissingFileWrites, d.MissingFileDeletes)
	}
	if len(d.MissingRegistryMods) != 0 {
		t.Errorf("MissingRegistryMods = %v", d.MissingRegistryMods)
	}
	if d.InjectionsSuppressed != 1 {
		t.Errorf("InjectionsSuppressed = %d", d.InjectionsSuppressed)
	}
	if d.String() == "no suppressed activities" {
		t.Error("String() for non-empty diff")
	}
}

func TestCompareIdenticalTracesEmpty(t *testing.T) {
	events := []Event{
		ev(KindProcessCreate, `C:\b.exe`, `child.exe`),
		ev(KindFileWrite, `C:\b.exe`, `C:\out.txt`),
	}
	d := Compare(Summarize(events), Summarize(events))
	if !d.Empty() {
		t.Errorf("diff of identical traces = %v", d)
	}
	if d.String() != "no suppressed activities" {
		t.Errorf("String = %q", d.String())
	}
}

func TestEventMutating(t *testing.T) {
	tests := []struct {
		e    Event
		want bool
	}{
		{Event{Kind: KindFileWrite, Success: true}, true},
		{Event{Kind: KindFileWrite, Success: false}, false},
		{Event{Kind: KindRegQueryValue, Success: true}, false},
		{Event{Kind: KindProcessCreate, Success: true}, true},
		{Event{Kind: KindAPICall, Success: true}, false},
	}
	for _, tt := range tests {
		if got := tt.e.Mutating(); got != tt.want {
			t.Errorf("Mutating(%v success=%v) = %v", tt.e.Kind, tt.e.Success, got)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindProcessCreate.String() != "ProcessCreate" {
		t.Error("KindProcessCreate name")
	}
	if Kind(999).String() != "Kind(999)" {
		t.Error("unknown kind formatting")
	}
}

// Property: Compare(a, a) is always empty, and a diff never reports more
// missing processes than the baseline created.
func TestCompareProperties(t *testing.T) {
	f := func(targets []uint8) bool {
		var events []Event
		for _, b := range targets {
			events = append(events, ev(KindProcessCreate, `C:\m.exe`, "child"+string(rune('a'+b%5))+".exe"))
		}
		s := Summarize(events)
		if !Compare(s, s).Empty() {
			return false
		}
		d := Compare(s, Summary{ProcessesCreated: map[string]int{}})
		return len(d.MissingProcesses) <= len(s.ProcessesCreated)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Time: 5 * time.Millisecond, Kind: KindProcessCreate, PID: 40, Image: `C:\a.exe`, Target: `C:\b.exe`, Success: true},
		{Time: 7 * time.Millisecond, Kind: KindRegSetValue, PID: 44, Target: `HKLM\Run`, Detail: "value=X", Success: true},
		{Time: 9 * time.Millisecond, Kind: KindDNSQuery, PID: 44, Target: "c2.example", Success: false},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip length %d", len(back))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"NoSuchKind","pid":1,"ok":true}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	events, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Errorf("empty stream: %v, %v", events, err)
	}
}

// Property: any event sequence survives serialization unchanged.
func TestJSONLRoundTripProperty(t *testing.T) {
	f := func(pids []uint8) bool {
		var events []Event
		for i, p := range pids {
			events = append(events, Event{
				Time: time.Duration(i) * time.Millisecond,
				Kind: KindAPICall, PID: int(p),
				Target: "API" + string(rune('A'+p%26)), Success: p%2 == 0,
			})
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			return false
		}
		back, err := ReadJSONL(&buf)
		if err != nil || len(back) != len(events) {
			return false
		}
		for i := range events {
			if back[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Recorder.Summarize reads the log in place and must count exactly what
// Summarize counts over the filtered copy.
func TestRecorderSummarizeMatchesFilter(t *testing.T) {
	kinds := []Kind{KindProcessCreate, KindFileWrite, KindFileDelete, KindRegSetValue,
		KindAPICall, KindDNSQuery, KindProcessInject, KindFileRead}
	images := []string{`C:\mal.exe`, `C:\Windows\svchost.exe`}
	f := func(picks []uint16) bool {
		r := NewRecorder()
		defer r.Release()
		for i, p := range picks {
			r.Record(Event{
				Kind: kinds[int(p)%len(kinds)], PID: 100 + int(p)%3,
				Image: images[int(p>>3)%2], Target: images[int(p>>4)%2],
				Time: time.Duration(i), Success: p&0x100 == 0,
			})
		}
		pred := func(e Event) bool { return e.PID != 101 }
		return reflect.DeepEqual(r.Summarize(pred), Summarize(r.Filter(pred)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Summarizing a long log in place allocates only the summary's maps, not a
// copy of the matching events.
func TestRecorderSummarizeAllocBudget(t *testing.T) {
	r := NewRecorder()
	defer r.Release()
	for i := 0; i < 8192; i++ {
		r.Record(Event{Kind: KindAPICall, PID: 7, Target: "IsDebuggerPresent", Success: true})
	}
	all := func(Event) bool { return true }
	allocs := testing.AllocsPerRun(20, func() { r.Summarize(all) })
	if allocs > 10 {
		t.Errorf("Recorder.Summarize over 8192 events allocates %.0f objects, budget is 10", allocs)
	}
}
