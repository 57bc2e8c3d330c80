package analysis

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"scarecrow/internal/core"
	"scarecrow/internal/malware"
)

// maxVerdictBytes bounds one canonical verdict: the trigger table grows
// with the distinct probes a sample makes, not with how often it repeats
// them.
const maxVerdictBytes = 2 << 10

// checkTriggerTable reports every way table fails to be the
// deduplication of stream: counts that do not sum to the stream's length,
// a repeated key, keys out of first-seen order, or an entry whose time
// and PID are not its key's first report.
func checkTriggerTable(stream []core.TriggerReport, table []TriggerEntry) error {
	type key struct {
		api      string
		category core.Category
		vendor   core.VendorProfile
		resource string
	}
	keyOf := func(r core.TriggerReport) key { return key{r.API, r.Category, r.Vendor, r.Resource} }

	first := make(map[key]int) // key → index of its first report
	var order []key
	for i, r := range stream {
		if _, ok := first[keyOf(r)]; !ok {
			first[keyOf(r)] = i
			order = append(order, keyOf(r))
		}
	}
	if len(table) != len(order) {
		return fmt.Errorf("table has %d entries, stream has %d distinct keys", len(table), len(order))
	}
	sum := 0
	for i, e := range table {
		sum += e.Count
		if k := keyOf(e.TriggerReport); k != order[i] {
			return fmt.Errorf("entry %d is %v, want the %d-th first-seen key %v", i, k, i, order[i])
		}
		if want := stream[first[order[i]]]; e.TriggerReport != want {
			return fmt.Errorf("entry %d carries %+v, want its first report %+v", i, e.TriggerReport, want)
		}
		if e.Count < 1 {
			return fmt.Errorf("entry %d has count %d", i, e.Count)
		}
	}
	if sum != len(stream) {
		return fmt.Errorf("counts sum to %d, stream has %d reports", sum, len(stream))
	}
	return nil
}

// tableSlice is every 10th MalGene sample plus every catalog and Joe
// Security specimen.
func tableSlice() []string {
	var names []string
	for i := 0; i < len(malware.MalGeneCorpus()); i += 10 {
		names = append(names, fmt.Sprintf("mg:mg%04d", i))
	}
	names = append(names, malware.CatalogNames()...)
	for _, s := range malware.JoeSecuritySamples() {
		names = append(names, "joe:"+s.ID)
	}
	return names
}

// Over real runs, the verdict's trigger table is exactly the deduplicated
// stream, first_trigger and the Table I behaviour columns still read the
// full stream, and no verdict exceeds maxVerdictBytes.
func TestTriggerTableOverCorpus(t *testing.T) {
	lab := NewLab(0)
	dup, total, largest, widest := 0, 0, 0, 0
	names := tableSlice()
	for _, name := range names {
		s, err := malware.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		res := lab.RunSampleSeeded(s, 1)
		if res.Err != nil {
			t.Fatalf("%s: lab run failed: %v", name, res.Err)
		}
		v, err := res.MarshalVerdict()
		if err != nil {
			t.Fatal(err)
		}
		total += len(v)
		largest = max(largest, len(v))
		if len(v) > maxVerdictBytes {
			t.Errorf("%s: verdict is %d bytes, bound is %d", name, len(v), maxVerdictBytes)
		}
		doc, err := UnmarshalVerdict(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stream := res.Protected.Triggers
		if err := checkTriggerTable(stream, doc.Triggers); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		dup += len(stream) - len(doc.Triggers)
		widest = max(widest, len(doc.Triggers))
		if doc.FirstTrigger != res.FirstTrigger() ||
			doc.BehaviourWithout != res.BehaviourWithout() ||
			doc.BehaviourWith != res.BehaviourWith() {
			t.Errorf("%s: Table I columns changed: got (%q, %q, %q), want (%q, %q, %q)", name,
				doc.FirstTrigger, doc.BehaviourWithout, doc.BehaviourWith,
				res.FirstTrigger(), res.BehaviourWithout(), res.BehaviourWith())
		}
	}
	t.Logf("%d verdicts: mean %d bytes, largest %d; widest table %d entries; %d repeated reports folded",
		len(names), total/len(names), largest, widest, dup)
	if dup == 0 {
		t.Error("no specimen in the slice repeated a trigger; the table was never exercised")
	}
}

// The canonical bytes open with the wire tag, and a document of another
// wire version does not decode.
func TestVerdictWireTag(t *testing.T) {
	v, err := sampleDoc(t).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !CurrentWire(v) {
		t.Fatalf("verdict does not open with the wire tag: %.40s", v)
	}
	if _, err := UnmarshalVerdict(v); err != nil {
		t.Fatal(err)
	}
	v1 := []byte(`{"specimen":"kasidet","category":"deactivated","triggers":[{"time_ns":1,"pid":4,"api":"IsDebuggerPresent","category":"debugger","resource":""}]}`)
	if CurrentWire(v1) {
		t.Error("an untagged verdict reads as current")
	}
	if _, err := UnmarshalVerdict(v1); err == nil {
		t.Error("UnmarshalVerdict accepted an untagged verdict")
	}
}

// decodeStream turns fuzz input into a trigger stream, four bytes per
// report: the API, category, vendor and resource each come from a small
// pool so keys repeat, and vendors and resources can be empty.
func decodeStream(data []byte) []core.TriggerReport {
	apis := []string{"IsDebuggerPresent", "RegOpenKeyEx", "GetModuleHandle", "CreateFile"}
	cats := []core.Category{core.CategoryDebugger, core.CategoryRegistry, core.CategoryLibrary, core.CategoryFile}
	vendors := []core.VendorProfile{"", core.VendorVMware, core.VendorVBox}
	resources := []string{"", `HKLM\SOFTWARE\VMware, Inc.`, "sbiedll.dll", `\\.\VBoxGuest`, `"quoted" <html>`}
	var stream []core.TriggerReport
	for i := 0; i+4 <= len(data); i += 4 {
		stream = append(stream, core.TriggerReport{
			Time:     time.Duration(binary.LittleEndian.Uint16(data[i:])) * time.Millisecond,
			PID:      4 * (1 + int(data[i+2]>>4)),
			API:      apis[data[i]%byte(len(apis))],
			Category: cats[data[i+1]%byte(len(cats))],
			Vendor:   vendors[data[i+2]%byte(len(vendors))],
			Resource: resources[data[i+3]%byte(len(resources))],
		})
	}
	return stream
}

// FuzzTriggerTable: for any stream, the table is its deduplication and
// the same stream always marshals to the same bytes.
func FuzzTriggerTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{1, 2, 0, 3}, 64))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 2, 3, 2, 4, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := decodeStream(data)
		table := TriggerTable(stream)
		if err := checkTriggerTable(stream, table); err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(table)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(TriggerTable(decodeStream(data)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("same stream, different bytes:\n%s\n%s", a, b)
		}
		var back []TriggerEntry
		if err := json.Unmarshal(a, &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != len(table) {
			t.Fatalf("round trip kept %d of %d entries", len(back), len(table))
		}
		for i := range back {
			if back[i] != table[i] {
				t.Fatalf("entry %d round-trips as %+v, want %+v", i, back[i], table[i])
			}
		}
	})
}
