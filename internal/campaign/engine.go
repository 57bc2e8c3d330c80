package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/service"
)

// Submitter is the slice of the verdict service a campaign needs:
// *service.Server satisfies it, and tests can wrap it to inject
// failures.
type Submitter interface {
	Submit(service.SubmitRequest) (*service.Job, error)
}

// Options sizes the engine.
type Options struct {
	// MaxJobs caps one manifest's expanded job count (default 16384).
	MaxJobs int
	// DefaultQuota is the in-flight width for manifests that do not set
	// one (default 4).
	DefaultQuota int
	// MaxQuota caps the width a manifest may request (default 16): even
	// a greedy campaign leaves queue slots for interactive traffic.
	MaxQuota int
	// QueueRetry is the fallback backoff after ErrQueueFull (default
	// 50ms, doubling to 1s). It only paces retries while the campaign
	// has nothing of its own in flight — otherwise the runner waits for
	// one of its own completions, which is the event that actually frees
	// a queue slot.
	QueueRetry time.Duration
	// Checkpoints, when set, makes campaign progress durable: a record
	// is written at launch, every CheckpointEvery completions, and at
	// finish (including drain-abort), so Resume on the next start picks
	// up interrupted sweeps. Nil disables checkpointing.
	Checkpoints CheckpointStore
	// CheckpointEvery is the completion stride between periodic
	// checkpoint writes (default 8).
	CheckpointEvery int
	// EventRing overrides the per-campaign event ring capacity (default
	// 4096). Tests shrink it to force snapshot-on-gap resumes.
	EventRing int
}

func (o Options) withDefaults() Options {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16384
	}
	if o.DefaultQuota <= 0 {
		o.DefaultQuota = 4
	}
	if o.MaxQuota <= 0 {
		o.MaxQuota = 16
	}
	if o.QueueRetry <= 0 {
		o.QueueRetry = 50 * time.Millisecond
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 8
	}
	return o
}

// Engine launches campaigns against a verdict service and keeps their
// state addressable for the HTTP layer.
type Engine struct {
	sub  Submitter
	opts Options

	mu        sync.Mutex
	nextID    uint64
	campaigns map[string]*Campaign
	order     []string
}

// NewEngine builds an engine over a verdict submitter.
func NewEngine(sub Submitter, opts Options) *Engine {
	return &Engine{
		sub:       sub,
		opts:      opts.withDefaults(),
		campaigns: make(map[string]*Campaign),
	}
}

// Launch validates and expands a manifest, registers the campaign, and
// starts its runner. The campaign is immediately addressable; Done()
// closes when it reaches a terminal state.
func (e *Engine) Launch(m Manifest) (*Campaign, error) {
	return e.launch(m, m.checkpointName(), 0)
}

// launch is the shared path behind Launch and Resume: ckptName is the
// campaign's durable identity, resumedFrom the checkpointed watermark
// it restarts from (0 for a fresh launch).
func (e *Engine) launch(m Manifest, ckptName string, resumedFrom int) (*Campaign, error) {
	jobs, err := m.expand(e.opts.MaxJobs)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.nextID++
	id := fmt.Sprintf("c%08d", e.nextID)
	c := newCampaign(id, m, jobs, e.opts.EventRing)
	c.ckptName = ckptName
	c.resumedFrom = resumedFrom
	e.campaigns[id] = c
	e.order = append(e.order, id)
	e.mu.Unlock()

	// The launch record makes the campaign itself durable before any
	// cell runs: a process killed a millisecond from now still resumes.
	e.checkpoint(c, StateRunning)
	go e.run(c)
	return c, nil
}

// Lookup returns a campaign by ID.
func (e *Engine) Lookup(id string) (*Campaign, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.campaigns[id]
	return c, ok
}

// List returns summaries of every campaign in launch order.
func (e *Engine) List() []Summary {
	e.mu.Lock()
	ids := make([]string, len(e.order))
	copy(ids, e.order)
	cs := make([]*Campaign, 0, len(ids))
	for _, id := range ids {
		cs = append(cs, e.campaigns[id])
	}
	e.mu.Unlock()
	out := make([]Summary, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// quota clamps a manifest's requested width into [1, MaxQuota].
func (e *Engine) quota(m Manifest) int {
	q := m.Quota
	if q <= 0 {
		q = e.opts.DefaultQuota
	}
	if q > e.opts.MaxQuota {
		q = e.opts.MaxQuota
	}
	return q
}

// run drives one campaign: fan jobs into the service under the quota
// semaphore, tally each verdict as it lands, finish with the summary
// event. Job order is deterministic; completion order is not.
func (e *Engine) run(c *Campaign) {
	quota := e.quota(c.manifest)
	sem := make(chan struct{}, quota)
	// freed is poked on every own-job completion: the event that actually
	// frees a service queue slot, and what submit blocks on under
	// backpressure instead of a wall-clock sleep.
	freed := make(chan struct{}, quota)
	var wg sync.WaitGroup
	aborted := false
	for _, js := range c.jobs {
		sem <- struct{}{}
		job, err := e.submit(js.request(), freed)
		if err != nil {
			<-sem
			if errors.Is(err, service.ErrDraining) {
				// The service is shutting down: nothing else will be
				// accepted, so stop fanning out. Jobs already in flight
				// still drain and are tallied below.
				aborted = true
				break
			}
			// Resolution failures (unknown specimen, bad profile) are
			// per-job errors, not campaign failures: a mixed manifest
			// reports them and sweeps on.
			c.recordVerdict(js, "error", false, err.Error())
			continue
		}
		wg.Add(1)
		go func(js jobSpec, job *service.Job) {
			defer wg.Done()
			defer func() { <-sem }()
			<-job.Done()
			category, cacheHit, jobErr := tally(job)
			c.recordVerdict(js, category, cacheHit, jobErr)
			e.maybeCheckpoint(c)
			select {
			case freed <- struct{}{}:
			default:
			}
		}(js, job)
	}
	wg.Wait()
	state := StateDone
	if aborted {
		state = StateAborted
	}
	// The final checkpoint lands before Finish closes done: by the time
	// any waiter (the daemon's drain path included) observes the
	// terminal state, the record a restart will read is already durable.
	// An aborted record resumes; a done record is skipped.
	e.checkpoint(c, state)
	c.Finish(state)
}

// Drain blocks until every launched campaign reaches a terminal state —
// and therefore, when checkpointing is on, until each one's final
// checkpoint is durable — or the context expires. The daemon calls this
// between draining the verdict service and closing the store, so a
// graceful shutdown mid-campaign leaves the same resumable record a
// SIGKILL does.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	cs := make([]*Campaign, 0, len(e.campaigns))
	for _, id := range e.order {
		cs = append(cs, e.campaigns[id])
	}
	e.mu.Unlock()
	for _, c := range cs {
		select {
		case <-c.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// tally extracts the event fields from a completed job's verdict bytes.
func tally(job *service.Job) (category string, cacheHit bool, jobErr string) {
	doc, err := analysis.UnmarshalVerdict(job.Verdict())
	if err != nil {
		return "error", job.CacheHit(), fmt.Sprintf("undecodable verdict: %v", err)
	}
	return doc.Category, job.CacheHit(), doc.Error
}

// submit pushes one request through the service, absorbing queue-full
// backpressure. The retry wakes on the campaign's own next completion —
// the queue slots ahead of us are (at least partly) our own jobs, so a
// completion is the signal that space opened up — with an exponential
// timer as the fallback for slots held by other clients. A stale freed
// poke at worst costs one extra refused Submit before waiting again.
// Draining and client errors surface to the caller.
func (e *Engine) submit(req service.SubmitRequest, freed <-chan struct{}) (*service.Job, error) {
	backoff := e.opts.QueueRetry
	for {
		job, err := e.sub.Submit(req)
		if err == nil || !errors.Is(err, service.ErrQueueFull) {
			return job, err
		}
		t := time.NewTimer(backoff)
		select {
		case <-freed:
			t.Stop()
		case <-t.C:
			if backoff < time.Second {
				backoff *= 2
			}
		}
	}
}
