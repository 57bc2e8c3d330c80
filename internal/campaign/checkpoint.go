// Campaign checkpointing: the engine periodically writes progress
// records into the verdict store's WAL so a killed daemon *resumes* its
// in-flight campaigns on restart instead of silently forgetting them.
//
// The division of labour with the verdict WAL is deliberate. Completed
// verdicts are already durable the moment they commit — what a crash
// loses is the campaign itself: which manifest was in flight, and how
// far it had got. The checkpoint record carries exactly that. Resume
// re-launches the recorded manifest in full; every cell whose verdict
// was committed before the crash replays from the WAL as a byte-
// identical cache hit at disk speed, so only the genuinely lost cells
// pay a lab run. That keeps the record small (no per-cell bitmap to
// maintain on the hot path) while guaranteeing the resumed campaign's
// event stream still covers every cell — nothing lost, and consumers
// that dedupe by cell see nothing duplicated.
package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// CheckpointStore is the slice of the durable store the engine needs
// for campaign checkpoints. *store.Store satisfies it; tests use an
// in-memory fake.
type CheckpointStore interface {
	// PutCheckpoint durably writes (or overwrites) the named record.
	PutCheckpoint(name string, val []byte) error
	// GetCheckpoint returns the newest committed value for the name.
	GetCheckpoint(name string) ([]byte, bool, error)
	// Checkpoints lists the live checkpoint names, sorted.
	Checkpoints() ([]string, error)
}

// checkpointRecord is the JSON payload of one campaign checkpoint.
type checkpointRecord struct {
	// V versions the record format.
	V int `json:"v"`
	// State is the campaign state at write time; "done" records are
	// terminal and never resumed.
	State string `json:"state"`
	// Completed is the progress watermark when the record was written —
	// diagnostic and reporting only; resume correctness comes from the
	// verdict WAL, not from this counter.
	Completed int `json:"completed"`
	// Total is the expanded cell count.
	Total int `json:"total"`
	// Manifest is the full launch manifest, so a restarted engine can
	// re-expand the identical cell list.
	Manifest Manifest `json:"manifest"`
}

const checkpointVersion = 1

// checkpointName derives the durable identity of a campaign. A tagged
// manifest (the front tags each sub-campaign it fans out) checkpoints
// under its tag, so the re-launched campaign after a crash overwrites
// the same record. Untagged manifests fall back to a content hash —
// stable across restarts, unlike engine-assigned IDs, which begin again
// at c00000001 in every process.
func (m Manifest) checkpointName() string {
	if m.Tag != "" {
		return m.Tag
	}
	buf, err := json.Marshal(m)
	if err != nil {
		// Manifest is plain data; Marshal cannot fail in practice. A
		// constant fallback keeps the name deterministic regardless.
		buf = []byte("unmarshalable")
	}
	h := fnv.New64a()
	h.Write(buf)
	return fmt.Sprintf("m%016x", h.Sum64())
}

// checkpoint writes the campaign's current progress under its durable
// name. state is the state to record (the campaign's own state flips to
// terminal only in Finish, which runs after the final checkpoint so the
// record is durable before waiters wake). Write failures are advisory —
// the WAL is an accelerator for restart, not a dependency of the running
// sweep — but are counted in the campaign's summary.
func (e *Engine) checkpoint(c *Campaign, state string) {
	if e.opts.Checkpoints == nil {
		return
	}
	_, completed := c.progress()
	rec := checkpointRecord{
		V:         checkpointVersion,
		State:     state,
		Completed: completed,
		Total:     c.Total(),
		Manifest:  c.manifest,
	}
	buf, err := json.Marshal(rec)
	if err == nil {
		err = e.opts.Checkpoints.PutCheckpoint(c.ckptName, buf)
	}
	if err != nil {
		c.noteCheckpointError()
	}
}

// maybeCheckpoint writes a periodic progress record when the campaign
// has completed another CheckpointEvery cells since the last one. Runs
// on job-completion goroutines; the compare-and-swap on lastCkpt lets
// exactly one of them claim each stride.
func (e *Engine) maybeCheckpoint(c *Campaign) {
	if e.opts.Checkpoints == nil {
		return
	}
	running, completed := c.progress()
	last := c.lastCkpt.Load()
	if running && completed > 0 && int64(completed)-last >= int64(e.opts.CheckpointEvery) &&
		c.lastCkpt.CompareAndSwap(last, int64(completed)) {
		e.checkpoint(c, StateRunning)
	}
}

// Resume re-launches every checkpointed campaign that had not reached
// "done" when the process last stopped — SIGKILL mid-sweep and graceful
// drain alike. It returns the resumed campaigns. Call it once at
// startup, after the engine (and its service) are ready to accept
// submissions; committed cells replay from the verdict WAL as cache
// hits, so a resumed sweep re-runs only the work that was actually
// lost.
func (e *Engine) Resume() ([]*Campaign, error) {
	if e.opts.Checkpoints == nil {
		return nil, nil
	}
	names, err := e.opts.Checkpoints.Checkpoints()
	if err != nil {
		return nil, fmt.Errorf("campaign: listing checkpoints: %w", err)
	}
	var resumed []*Campaign
	var firstErr error
	for _, name := range names {
		buf, ok, err := e.opts.Checkpoints.GetCheckpoint(name)
		if err != nil || !ok {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("campaign: reading checkpoint %s: %w", name, err)
			}
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(buf, &rec); err != nil {
			// An undecodable record is skipped, not fatal: one corrupt
			// checkpoint must not stop the others from resuming.
			if firstErr == nil {
				firstErr = fmt.Errorf("campaign: decoding checkpoint %s: %w", name, err)
			}
			continue
		}
		if rec.State == StateDone {
			continue
		}
		c, err := e.launch(rec.Manifest, name, rec.Completed)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("campaign: resuming %s: %w", name, err)
			}
			continue
		}
		resumed = append(resumed, c)
	}
	return resumed, firstErr
}
