package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"scarecrow/internal/core"
	"scarecrow/internal/trace"
)

// WireVersion tags the canonical verdict format: every verdict the lab
// marshals opens with `{"wire":2,`. Version 1 verdicts carried no tag and
// embedded the whole trigger stream; bytes without the current tag are
// not a verdict this build serves, so the service reruns their key.
const WireVersion = 2

// wireTag is the prefix every current verdict starts with.
var wireTag = []byte(`{"wire":` + strconv.Itoa(WireVersion) + `,`)

// CurrentWire reports whether verdict bytes carry the current wire tag.
func CurrentWire(verdict []byte) bool {
	return bytes.HasPrefix(verdict, wireTag)
}

// VerdictDoc is the wire form of one SampleResult: everything a verdict
// consumer needs, flattened into JSON-stable fields, opened by the wire
// tag. Serialization is deterministic — map keys are sorted by
// encoding/json, trace.Diff lists are pre-sorted, and the trigger table
// keeps first-seen order — so the same (specimen, profile, seed) always
// marshals to the same bytes. scarecrowd caches and coalesces on exactly
// that property.
//
// Triggers is the Scarecrow IPC stream deduplicated into a table, one
// entry per (API, category, vendor, resource): a spawn-loop sample sends
// the same probe once per child, and its verdict carries that probe once
// with a count. The full stream stays in SampleResult.Protected.Triggers.
type VerdictDoc struct {
	// Wire is the format version, always WireVersion.
	Wire int `json:"wire"`

	// Specimen identity.
	Specimen string `json:"specimen"`
	Family   string `json:"family,omitempty"`
	Source   string `json:"source,omitempty"`

	// The §IV-C decision.
	Category    string `json:"category"`
	Deactivated bool   `json:"deactivated"`
	SpawnLoop   bool   `json:"spawn_loop,omitempty"`
	// FirstTrigger is the Table I trigger column ("IsDebuggerPresent()",
	// "Hook detection", "N/A").
	FirstTrigger string `json:"first_trigger"`

	// Human-readable behaviour comparison (Table I columns 2–3).
	BehaviourWithout string `json:"behaviour_without"`
	BehaviourWith    string `json:"behaviour_with"`

	// Machine-readable evidence.
	Suppressed            trace.Diff     `json:"suppressed"`
	UsedIsDebuggerPresent bool           `json:"used_isdebuggerpresent,omitempty"`
	RawMutations          int            `json:"raw_mutations"`
	ProtectedMutations    int            `json:"protected_mutations"`
	Triggers              []TriggerEntry `json:"triggers,omitempty"`
	Alerts                []string       `json:"alerts,omitempty"`
	HookDetectionLikely   bool           `json:"hook_detection_likely,omitempty"`

	// Run accounting.
	VirtualNS       int64  `json:"virtual_ns"`
	Attempts        int    `json:"attempts"`
	RecoveredPanics int    `json:"recovered_panics,omitempty"`
	Error           string `json:"error,omitempty"`
}

// Doc flattens the result into its wire form.
func (r SampleResult) Doc() VerdictDoc {
	doc := VerdictDoc{
		Wire:                  WireVersion,
		Category:              r.Verdict.Category.String(),
		Deactivated:           r.Verdict.Deactivated,
		SpawnLoop:             r.Verdict.SpawnLoop,
		FirstTrigger:          r.FirstTrigger(),
		BehaviourWithout:      r.BehaviourWithout(),
		BehaviourWith:         r.BehaviourWith(),
		Suppressed:            r.Verdict.Suppressed,
		UsedIsDebuggerPresent: r.Verdict.UsedIsDebuggerPresent,
		RawMutations:          r.Verdict.RawMutations,
		ProtectedMutations:    r.Verdict.ProtectedMutations,
		Triggers:              TriggerTable(r.Protected.Triggers),
		Alerts:                r.Protected.Alerts,
		HookDetectionLikely:   r.Protected.HookDetectionLikely,
		VirtualNS:             int64(r.Raw.VirtualTime + r.Protected.VirtualTime),
		Attempts:              r.Attempts,
		RecoveredPanics:       r.RecoveredPanics,
	}
	if r.Specimen != nil {
		doc.Specimen = r.Specimen.ID
		doc.Family = r.Specimen.Family
		doc.Source = string(r.Specimen.Source)
	}
	if r.Err != nil {
		doc.Error = r.Err.Error()
	}
	return doc
}

// TriggerEntry is one row of a verdict's trigger table: the first report
// of one (API, category, vendor, resource) key — its time_ns and pid are
// the first occurrence's — and how many reports the stream held for it.
type TriggerEntry struct {
	core.TriggerReport
	Count int `json:"count"`
}

// sameKey reports whether two reports fall in the same table entry.
func sameKey(a, b *core.TriggerReport) bool {
	return a.API == b.API && a.Category == b.Category && a.Vendor == b.Vendor && a.Resource == b.Resource
}

// TriggerTable deduplicates a trigger stream into its table, one entry
// per key in first-seen order. The counts sum to len(stream). Each report
// is compared with the entries so far: a deceived sample stops after a
// probe or two (over the whole corpus, and every catalog and Joe Security
// specimen on two profiles, no table has more than two entries), and
// comparing a few strings that share their bytes is cheaper than hashing
// them.
func TriggerTable(stream []core.TriggerReport) []TriggerEntry {
	var table []TriggerEntry
next:
	for n := range stream {
		r := &stream[n]
		for i := range table {
			if sameKey(&table[i].TriggerReport, r) {
				table[i].Count++
				continue next
			}
		}
		table = append(table, TriggerEntry{TriggerReport: *r, Count: 1})
	}
	return table
}

// Virtual returns the total machine-clock time the paired run modeled.
func (d VerdictDoc) Virtual() time.Duration {
	return time.Duration(d.VirtualNS)
}

// verdictEncoder pairs a reusable buffer with a JSON encoder writing into
// it, so the per-verdict encoding scratch is pooled rather than
// reallocated. The encoder keeps default HTML escaping, which is what
// json.Marshal uses — the output stays byte-identical (modulo the trailing
// newline Encode appends, trimmed below).
type verdictEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var verdictEncoders = sync.Pool{New: func() any {
	ve := &verdictEncoder{}
	ve.enc = json.NewEncoder(&ve.buf)
	return ve
}}

// AppendJSON appends the document's canonical verdict JSON to dst and
// returns the extended slice. The bytes are identical to json.Marshal's;
// the encoding scratch comes from a pool, so a caller reusing dst across
// verdicts marshals with near-zero steady-state allocation.
func (d VerdictDoc) AppendJSON(dst []byte) ([]byte, error) {
	ve := verdictEncoders.Get().(*verdictEncoder)
	ve.buf.Reset()
	if err := ve.enc.Encode(d); err != nil {
		verdictEncoders.Put(ve)
		return nil, fmt.Errorf("analysis: marshalling verdict for %s: %w", d.Specimen, err)
	}
	out := ve.buf.Bytes()
	dst = append(dst, out[:len(out)-1]...) // Encode appends a newline
	verdictEncoders.Put(ve)
	return dst, nil
}

// MarshalVerdict renders the result as canonical verdict JSON — the bytes
// scarecrowd serves, caches, and load-tests against. Identical results
// marshal to identical bytes.
func (r SampleResult) MarshalVerdict() ([]byte, error) {
	return r.Doc().AppendJSON(nil)
}

// UnmarshalVerdict parses canonical verdict JSON back into its document
// form. Consumers downstream of the wire bytes — the campaign engine
// tallying per-category counts, clients post-processing a sweep — use
// this instead of ad-hoc map decoding so field renames break loudly. A
// document of any other wire version is an error.
func UnmarshalVerdict(data []byte) (VerdictDoc, error) {
	var doc VerdictDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return VerdictDoc{}, fmt.Errorf("analysis: unmarshalling verdict: %w", err)
	}
	if doc.Wire != WireVersion {
		return VerdictDoc{}, fmt.Errorf("analysis: unmarshalling verdict: wire %d, want %d", doc.Wire, WireVersion)
	}
	return doc, nil
}
