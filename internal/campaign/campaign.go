// Package campaign is scarecrowd's batch layer: corpus-scale sweeps
// through the verdict service without corpus-scale polling.
//
// A campaign is a manifest — specimen list × profile list × seed list —
// fanned into the service's worker queue under a per-campaign quota, so
// a thousand-job sweep trickles through at a bounded in-flight width and
// interactive /v1/verdict traffic keeps getting queue slots. Progress is
// pushed, not polled: every completed verdict appends an event to the
// campaign's ring buffer and GET /v1/campaign/{id}/events streams them
// as Server-Sent Events, with Last-Event-ID resume so a dropped client
// reconnects and misses nothing that is still in the ring. The terminal
// event is a summary: per-category verdict counts, error tally, wall
// time, throughput.
//
// Campaigns compose with the durable store: resubmitting a manifest
// whose verdicts are already committed streams cache-hit events at disk
// speed and re-runs only the missing keys.
package campaign

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"scarecrow/internal/service"
	"scarecrow/internal/synth"
)

// Manifest is the body of POST /v1/campaign: the batch to sweep. The job
// list is the cross product (Specimens + Predicates) × Profiles × Seeds —
// or, for sub-campaigns fanned out by a shard front, the explicit Cells
// list.
type Manifest struct {
	// Specimens lists catalog names (wannacry, joe:<id>, mg:<id>, ...).
	Specimens []string `json:"specimens,omitempty"`
	// Predicates lists synthesized predicate trees (synth.Node JSON) to
	// sweep alongside the named specimens — the fuzzer's campaign-scale
	// submission path. Each is validated at launch (HTTP 400 on a
	// malformed tree).
	Predicates []json.RawMessage `json:"predicates,omitempty"`
	// Profiles lists machine profiles (default: the service default).
	Profiles []string `json:"profiles,omitempty"`
	// Seeds lists machine seeds (default: [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// Quota bounds this campaign's in-flight jobs inside the service
	// queue (default/cap set by the engine) — the fairness knob that
	// keeps a batch from starving interactive traffic.
	Quota int `json:"quota,omitempty"`
	// Cells lists explicit (specimen-or-predicate, profile, seed) cells
	// instead of a cross product — the shape scarefront uses to hand
	// each backend exactly the cells its shard owns (an arbitrary subset
	// of a cross product is not itself a cross product). Mutually
	// exclusive with Specimens/Predicates/Profiles/Seeds.
	Cells []Cell `json:"cells,omitempty"`
	// Tag is an optional caller-supplied label, surfaced in summaries
	// and used as the campaign's durable checkpoint identity: a crashed
	// backend resumes a tagged campaign under the same tag, which is how
	// a front re-finds the sub-campaigns it fanned out.
	Tag string `json:"tag,omitempty"`
}

// Cell is one explicit campaign cell. Exactly one of Specimen and
// Predicate must be set.
type Cell struct {
	// Specimen names a catalog sample, as in Manifest.Specimens.
	Specimen string `json:"specimen,omitempty"`
	// Predicate carries a synthesized predicate tree (synth.Node JSON);
	// the cell is labelled "syn:<fingerprint>" in events.
	Predicate json.RawMessage `json:"predicate,omitempty"`
	// Profile is the machine profile ("" = service default).
	Profile string `json:"profile,omitempty"`
	// Seed drives machine construction.
	Seed int64 `json:"seed"`
}

// jobSpec is one expanded (specimen, profile, seed) cell. Synthesized
// cells carry the predicate JSON in Predicate and a "syn:<fingerprint>"
// display label in Specimen (the label also names the cell in SSE
// events; the service ignores it when Predicate is set).
type jobSpec struct {
	Specimen  string
	Predicate json.RawMessage
	Profile   string
	Seed      int64
}

func (j jobSpec) request() service.SubmitRequest {
	seed := j.Seed
	if len(j.Predicate) > 0 {
		return service.SubmitRequest{Predicate: j.Predicate, Profile: j.Profile, Seed: &seed}
	}
	return service.SubmitRequest{Specimen: j.Specimen, Profile: j.Profile, Seed: &seed}
}

// expand validates the manifest shape and builds the job list in
// deterministic specimen-major order (named specimens first, then
// predicates in manifest order). A Cells manifest expands in cell
// order instead.
func (m Manifest) expand(maxJobs int) ([]jobSpec, error) {
	if len(m.Cells) > 0 {
		return m.expandCells(maxJobs)
	}
	if len(m.Specimens) == 0 && len(m.Predicates) == 0 {
		return nil, fmt.Errorf("campaign: manifest lists no specimens, predicates, or cells")
	}
	type cell struct {
		name string
		pred json.RawMessage
	}
	cells := make([]cell, 0, len(m.Specimens)+len(m.Predicates))
	for _, spec := range m.Specimens {
		cells = append(cells, cell{name: spec})
	}
	for i, raw := range m.Predicates {
		var n *synth.Node
		if err := json.Unmarshal(raw, &n); err != nil {
			return nil, fmt.Errorf("campaign: predicate %d: %w", i, err)
		}
		if err := synth.CheckBounds(n); err != nil {
			return nil, fmt.Errorf("campaign: predicate %d: %w", i, err)
		}
		if err := n.Validate(synth.EntryIndex()); err != nil {
			return nil, fmt.Errorf("campaign: predicate %d: %w", i, err)
		}
		cells = append(cells, cell{name: "syn:" + n.Fingerprint(), pred: raw})
	}
	profiles := m.Profiles
	if len(profiles) == 0 {
		profiles = []string{""} // service default
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	total := len(cells) * len(profiles) * len(seeds)
	if total > maxJobs {
		return nil, fmt.Errorf("campaign: %d jobs exceeds the per-campaign limit of %d", total, maxJobs)
	}
	jobs := make([]jobSpec, 0, total)
	for _, c := range cells {
		for _, prof := range profiles {
			for _, seed := range seeds {
				jobs = append(jobs, jobSpec{Specimen: c.name, Predicate: c.pred, Profile: prof, Seed: seed})
			}
		}
	}
	return jobs, nil
}

// expandCells builds the job list from an explicit Cells manifest, in
// cell order.
func (m Manifest) expandCells(maxJobs int) ([]jobSpec, error) {
	if len(m.Specimens) > 0 || len(m.Predicates) > 0 || len(m.Profiles) > 0 || len(m.Seeds) > 0 {
		return nil, fmt.Errorf("campaign: cells are mutually exclusive with specimens/predicates/profiles/seeds")
	}
	if len(m.Cells) > maxJobs {
		return nil, fmt.Errorf("campaign: %d jobs exceeds the per-campaign limit of %d", len(m.Cells), maxJobs)
	}
	jobs := make([]jobSpec, 0, len(m.Cells))
	for i, cl := range m.Cells {
		hasSpec, hasPred := cl.Specimen != "", len(cl.Predicate) > 0
		if hasSpec == hasPred {
			return nil, fmt.Errorf("campaign: cell %d: exactly one of specimen and predicate must be set", i)
		}
		js := jobSpec{Specimen: cl.Specimen, Profile: cl.Profile, Seed: cl.Seed}
		if hasPred {
			var n *synth.Node
			if err := json.Unmarshal(cl.Predicate, &n); err != nil {
				return nil, fmt.Errorf("campaign: cell %d: %w", i, err)
			}
			if err := synth.CheckBounds(n); err != nil {
				return nil, fmt.Errorf("campaign: cell %d: %w", i, err)
			}
			if err := n.Validate(synth.EntryIndex()); err != nil {
				return nil, fmt.Errorf("campaign: cell %d: %w", i, err)
			}
			js.Specimen = "syn:" + n.Fingerprint()
			js.Predicate = cl.Predicate
		}
		jobs = append(jobs, js)
	}
	return jobs, nil
}

// ExpandCells expands the manifest into its explicit cell list — the
// same cells, in the same order, the engine itself would run, with the
// same validation. A shard front uses this to fan one cross-product
// manifest out as per-backend Cells sub-manifests.
func (m Manifest) ExpandCells(maxJobs int) ([]Cell, error) {
	jobs, err := m.expand(maxJobs)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(jobs))
	for _, j := range jobs {
		c := Cell{Profile: j.Profile, Seed: j.Seed}
		if len(j.Predicate) > 0 {
			c.Predicate = j.Predicate
		} else {
			c.Specimen = j.Specimen
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// Campaign lifecycle states.
const (
	StateRunning = "running"
	// StateDone: every job completed (possibly with per-job errors).
	StateDone = "done"
	// StateAborted: the service started draining mid-campaign; the
	// remaining jobs were never run.
	StateAborted = "aborted"
)

// Event is one entry in a campaign's stream. Verdict events carry the
// per-job outcome plus a progress counter; the terminal summary event
// carries the aggregate.
type Event struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"` // "verdict" | "summary" | "snapshot"

	// Verdict fields.
	Specimen string `json:"specimen,omitempty"`
	Profile  string `json:"profile,omitempty"`
	Seed     int64  `json:"seed"`
	Category string `json:"category,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`

	// Progress at the time of the event.
	Completed int `json:"completed"`
	Total     int `json:"total"`

	// Summary payload (summary and snapshot events).
	Summary *Summary `json:"summary,omitempty"`
}

// Summary aggregates a campaign: the paper's corpus-sweep numbers in
// wire form.
type Summary struct {
	ID         string         `json:"id"`
	Tag        string         `json:"tag,omitempty"`
	State      string         `json:"state"`
	Total      int            `json:"total"`
	Completed  int            `json:"completed"`
	Errors     int            `json:"errors"`
	CacheHits  int            `json:"cache_hits"`
	Categories map[string]int `json:"categories,omitempty"`

	WallS        float64 `json:"wall_s"`
	VerdictsPerS float64 `json:"verdicts_per_s"`

	// ResumedFrom is the checkpointed completion watermark this campaign
	// was resumed from (0 for a fresh launch).
	ResumedFrom int `json:"resumed_from,omitempty"`
	// CheckpointErrors counts failed checkpoint writes — advisory, the
	// sweep itself is unaffected.
	CheckpointErrors int `json:"checkpoint_errors,omitempty"`
}

// Campaign is one running or finished sweep: its event Log plus the
// manifest, the expanded jobs, and the checkpoint bookkeeping. Every
// field is immutable after construction except lastCkpt, which is
// atomic.
type Campaign struct {
	*Log

	manifest Manifest
	jobs     []jobSpec
	ckptName string       // durable checkpoint identity (tag or manifest hash)
	lastCkpt atomic.Int64 // completed watermark at the last periodic checkpoint
}

func newCampaign(id string, m Manifest, jobs []jobSpec, ring int) *Campaign {
	return &Campaign{
		Log:      NewLog(id, m.Tag, len(jobs), ring),
		manifest: m,
		jobs:     jobs,
	}
}

// recordVerdict tallies one completed job and appends its event.
func (c *Campaign) recordVerdict(js jobSpec, category string, cacheHit bool, jobErr string) {
	c.Record(Event{
		Specimen: js.Specimen,
		Profile:  js.Profile,
		Seed:     js.Seed,
		Category: category,
		CacheHit: cacheHit,
		Error:    jobErr,
	})
}
