package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Summary condenses a trace into the significant-activity sets the paper's
// verdict logic works with (Section IV-C): processes created, files
// written/created/deleted, and registry keys/values modified. Self-spawn
// counts are tracked separately because a self-spawning loop is itself a
// deactivation signal under Scarecrow.
// The JSON field names are part of scarecrowd's verdict wire format;
// encoding/json emits map keys sorted, so two summaries of the same
// execution always serialize byte-identically.
type Summary struct {
	// ProcessesCreated maps child image name (lowercased) to creation count,
	// excluding self-spawns of the root image.
	ProcessesCreated map[string]int `json:"processes_created,omitempty"`
	// SelfSpawns counts creations of processes whose image equals the
	// spawning process's own image.
	SelfSpawns int `json:"self_spawns,omitempty"`
	// FilesWritten maps file paths (lowercased) written or created.
	FilesWritten map[string]int `json:"files_written,omitempty"`
	// FilesDeleted maps file paths (lowercased) deleted.
	FilesDeleted map[string]int `json:"files_deleted,omitempty"`
	// RegistryModified maps modified registry keys (lowercased) to the
	// number of set/create/delete operations against them.
	RegistryModified map[string]int `json:"registry_modified,omitempty"`
	// Injections counts process-injection events.
	Injections int `json:"injections,omitempty"`
	// APICalls maps API names to invocation counts.
	APICalls map[string]int `json:"api_calls,omitempty"`
	// DNSQueries maps queried domains (lowercased) to counts.
	DNSQueries map[string]int `json:"dns_queries,omitempty"`
}

// Summarize builds a Summary from a sequence of events.
func Summarize(events []Event) Summary {
	s := newSummary()
	for i := range events {
		s.add(&events[i])
	}
	return s
}

// newSummary returns an empty Summary with every map allocated.
func newSummary() Summary {
	return Summary{
		ProcessesCreated: make(map[string]int),
		FilesWritten:     make(map[string]int),
		FilesDeleted:     make(map[string]int),
		RegistryModified: make(map[string]int),
		APICalls:         make(map[string]int),
		DNSQueries:       make(map[string]int),
	}
}

// add folds one event into the summary; Summarize and Recorder.Summarize
// share it, so the two cannot count differently.
func (s *Summary) add(e *Event) {
	if !e.Success && e.Kind != KindAPICall && e.Kind != KindDNSQuery {
		return
	}
	switch e.Kind {
	case KindProcessCreate:
		child := strings.ToLower(baseName(e.Target))
		parent := strings.ToLower(baseName(e.Image))
		if child == parent {
			s.SelfSpawns++
		} else {
			s.ProcessesCreated[child]++
		}
	case KindFileCreate, KindFileWrite:
		s.FilesWritten[strings.ToLower(e.Target)]++
	case KindFileDelete:
		s.FilesDeleted[strings.ToLower(e.Target)]++
	case KindRegCreateKey, KindRegSetValue, KindRegDeleteKey, KindRegDeleteValue:
		s.RegistryModified[strings.ToLower(e.Target)]++
	case KindProcessInject:
		s.Injections++
	case KindAPICall:
		s.APICalls[e.Target]++
	case KindDNSQuery:
		s.DNSQueries[strings.ToLower(e.Target)]++
	}
}

// Mutations returns the count of all durable state changes in the summary,
// excluding self-spawns.
func (s Summary) Mutations() int {
	n := s.Injections
	for _, c := range s.ProcessesCreated {
		n += c
	}
	for _, c := range s.FilesWritten {
		n += c
	}
	for _, c := range s.FilesDeleted {
		n += c
	}
	for _, c := range s.RegistryModified {
		n += c
	}
	return n
}

// Diff describes the significant activities present in a baseline trace but
// absent from a protected trace. A non-empty Diff for a malware sample means
// Scarecrow suppressed those activities.
// Every list is sorted (missingKeys sorts), so a Diff serializes
// deterministically — scarecrowd's cached verdicts rely on it.
type Diff struct {
	// MissingProcesses lists child images created in the baseline run but
	// not in the protected run.
	MissingProcesses []string `json:"missing_processes,omitempty"`
	// MissingFileWrites lists files written in the baseline run only.
	MissingFileWrites []string `json:"missing_file_writes,omitempty"`
	// MissingFileDeletes lists files deleted in the baseline run only.
	MissingFileDeletes []string `json:"missing_file_deletes,omitempty"`
	// MissingRegistryMods lists registry keys modified in the baseline run
	// only.
	MissingRegistryMods []string `json:"missing_registry_mods,omitempty"`
	// InjectionsSuppressed is the number of baseline injections with no
	// counterpart in the protected run.
	InjectionsSuppressed int `json:"injections_suppressed,omitempty"`
}

// Empty reports whether the protected run reproduced every significant
// activity of the baseline run.
func (d Diff) Empty() bool {
	return len(d.MissingProcesses) == 0 &&
		len(d.MissingFileWrites) == 0 &&
		len(d.MissingFileDeletes) == 0 &&
		len(d.MissingRegistryMods) == 0 &&
		d.InjectionsSuppressed == 0
}

// String renders the diff as a short multi-line report.
func (d Diff) String() string {
	if d.Empty() {
		return "no suppressed activities"
	}
	var sb strings.Builder
	writeList := func(label string, items []string) {
		if len(items) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s: %s\n", label, strings.Join(items, ", "))
	}
	writeList("suppressed processes", d.MissingProcesses)
	writeList("suppressed file writes", d.MissingFileWrites)
	writeList("suppressed file deletes", d.MissingFileDeletes)
	writeList("suppressed registry mods", d.MissingRegistryMods)
	if d.InjectionsSuppressed > 0 {
		fmt.Fprintf(&sb, "suppressed injections: %d\n", d.InjectionsSuppressed)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// Compare diffs a baseline summary (without Scarecrow) against a protected
// summary (with Scarecrow) and reports the baseline activities missing from
// the protected run.
func Compare(baseline, protected Summary) Diff {
	var d Diff
	d.MissingProcesses = missingKeys(baseline.ProcessesCreated, protected.ProcessesCreated)
	d.MissingFileWrites = missingKeys(baseline.FilesWritten, protected.FilesWritten)
	d.MissingFileDeletes = missingKeys(baseline.FilesDeleted, protected.FilesDeleted)
	d.MissingRegistryMods = missingKeys(baseline.RegistryModified, protected.RegistryModified)
	if baseline.Injections > protected.Injections {
		d.InjectionsSuppressed = baseline.Injections - protected.Injections
	}
	return d
}

func missingKeys(baseline, protected map[string]int) []string {
	var out []string
	for k := range baseline {
		if protected[k] == 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func baseName(path string) string {
	if i := strings.LastIndexAny(path, `\/`); i >= 0 {
		return path[i+1:]
	}
	return path
}
