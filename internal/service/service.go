// Package service is scarecrowd's verdict engine: a concurrent front end
// over the analysis lab cluster that answers "is this specimen evasive,
// and does Scarecrow deactivate it?" over HTTP.
//
// Architecture: a bounded job queue feeds a fixed pool of workers. Each
// worker owns its own analysis.Lab per machine profile — the lab's
// template-snapshot pool and the machines' trace recorders are
// single-owner structures, so nothing lab-shaped is ever shared between
// goroutines. Backpressure is explicit: a full queue rejects the
// submission (HTTP 429 + Retry-After) instead of blocking the listener.
//
// Because runs are deterministic (PR 3's differential harness proves
// pooled and fresh machines bit-identical), the verdict for a
// (specimen, profile, seed) triple is a pure function of the request. The
// service exploits that twice: an LRU cache serves repeat submissions
// without a run, and in-flight submissions for the same key coalesce onto
// one queued job. Both paths return byte-identical verdict JSON.
//
// Failure stays contained: a panic anywhere in a run is absorbed by the
// lab (SampleResult.Err, VerdictError) or, as a last resort, by the
// worker's own recover — a poisoned specimen fails its own job and the
// worker keeps serving.
package service

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/store"
	"scarecrow/internal/winsim"
)

// Config sizes the service.
type Config struct {
	// Workers is the lab-cluster width (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; a full queue rejects submissions
	// with ErrQueueFull (default 4× workers).
	QueueDepth int
	// CacheSize is the verdict LRU capacity in entries (default 4096).
	CacheSize int
	// RetryAfter is the base backoff the 429 response advertises (default
	// 1s). Each response adds a deterministic per-job-key jitter on top,
	// so a herd of synchronized clients retrying the same corpus spreads
	// out instead of stampeding in lockstep.
	RetryAfter time.Duration
	// Store, when non-nil, is the durable verdict store: clean verdicts
	// are appended to its WAL on completion, and submissions that miss
	// the in-memory cache are answered from it without a lab run — a
	// restarted daemon serves every verdict it ever committed. The
	// caller owns the store's lifecycle (Open before NewServer, Close
	// after Shutdown).
	Store *store.Store
	// Resolver turns a request into a runnable specimen + canonical cache
	// key. Nil means the built-in catalog/recipe resolver; tests and
	// embedders can extend the catalog.
	Resolver func(SubmitRequest) (*malware.Specimen, string, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// JobState is the lifecycle of one submission.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing the paired run.
	JobRunning JobState = "running"
	// JobDone: the verdict is available.
	JobDone JobState = "done"
)

// Job is one accepted submission. Fields are owned by the server's mutex;
// readers outside the package use the accessor methods.
type Job struct {
	// ID addresses the job in GET /v1/result/{id}.
	ID string
	// Key is the canonical (specimen, profile, seed) identity.
	Key string

	spec resolved

	mu       sync.Mutex
	state    JobState
	verdict  []byte // canonical verdict JSON, set once at completion
	cacheHit bool
	created  time.Time
	done     chan struct{}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Verdict returns the canonical verdict JSON, or nil while pending. The
// slice is shared — callers must not mutate it.
func (j *Job) Verdict() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.verdict
}

// CacheHit reports whether the verdict was served from the cache without
// a run.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// Done returns a channel closed when the verdict is available.
func (j *Job) Done() <-chan struct{} { return j.done }

// publish completes the job: records the verdict bytes under the job
// lock, then wakes waiters. Must be called exactly once per job.
func (j *Job) publish(verdict []byte, cacheHit bool) {
	j.mu.Lock()
	j.state = JobDone
	j.verdict = verdict
	j.cacheHit = cacheHit
	j.mu.Unlock()
	close(j.done)
}

// Sentinel submission failures, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull: the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = fmt.Errorf("service: job queue full")
	// ErrDraining: the server is shutting down (HTTP 503).
	ErrDraining = fmt.Errorf("service: draining, not accepting submissions")
)

// Server is the verdict service: worker pool, bounded queue, verdict
// cache, and job registry. Create with NewServer, start with Start, serve
// via Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	cache *verdictCache
	queue chan *Job

	// monitorSem bounds concurrent /v1/monitor streams to the worker
	// count; it is its own synchronization (channel semantics), as is the
	// monitored-run lab pool below it.
	monitorSem  chan struct{}
	monitorLabs monitorLabs

	mu       sync.Mutex
	draining bool
	nextID   uint64
	jobs     map[string]*Job // job ID → job
	inflight map[string]*Job // canonical key → queued/running job
	// finished is the FIFO of completed job IDs backing the registry's
	// retention bound: the oldest done jobs are forgotten once
	// jobRetention is exceeded, so a long-running daemon's registry stays
	// bounded. Polling a forgotten ID is a 404.
	finished []string
	// serving statistics (all under mu)
	submitted, completed, coalesced, rejected uint64
	labRuns, verdictErrors, recoveredPanics   uint64
	storeHits, storeErrors                    uint64
	monitorRuns, monitorDeterred              uint64
	monitorRejected                           uint64
	virtual                                   time.Duration

	workers sync.WaitGroup
	started time.Time

	// commitc feeds the committer goroutine, which folds concurrent
	// verdict commits into store.PutBatch group commits. Nil when the
	// server has no store or has not started.
	commitc   chan commitReq
	committer sync.WaitGroup
}

// commitReq is one verdict awaiting group commit. done receives the
// batch's write error (nil on success) exactly once.
type commitReq struct {
	key  string
	val  []byte
	done chan error
}

// NewServer builds a stopped server; Start launches the workers.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:        cfg,
		cache:      newVerdictCache(cfg.CacheSize),
		queue:      make(chan *Job, cfg.QueueDepth),
		monitorSem: make(chan struct{}, cfg.Workers),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		started:    time.Now(),
	}
}

// Start launches the worker pool. Submissions made before Start sit in
// the queue and run once workers exist.
func (s *Server) Start() {
	s.mu.Lock()
	s.started = time.Now()
	if s.cfg.Store != nil && s.commitc == nil {
		s.commitc = make(chan commitReq, s.cfg.Workers)
		s.committer.Add(1)
		go s.commitLoop()
	}
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
}

// commitLoop is the group committer: it drains every commit request
// already queued into one store.PutBatch call — one lock acquisition and
// one write(2) for the whole batch — then answers each waiter. Under
// concurrent load the batch grows to the worker count; an idle service
// degenerates to batches of one, which is exactly the old Put path. No
// timer is involved, so a lone commit is never delayed.
func (s *Server) commitLoop() {
	defer s.committer.Done()
	var batch []store.Record
	var waiters []chan error
	for req := range s.commitc {
		batch = append(batch[:0], store.Record{Key: req.key, Val: req.val})
		waiters = append(waiters[:0], req.done)
	drain:
		for {
			select {
			case more, ok := <-s.commitc:
				if !ok {
					break drain
				}
				batch = append(batch, store.Record{Key: more.key, Val: more.val})
				waiters = append(waiters, more.done)
			default:
				break drain
			}
		}
		err := s.cfg.Store.PutBatch(batch)
		for _, done := range waiters {
			done <- err
		}
	}
}

// commit blocks until the verdict is durably committed (possibly as part
// of a larger batch) and returns the write error.
func (s *Server) commit(key string, val []byte) error {
	done := make(chan error, 1)
	s.commitc <- commitReq{key: key, val: val, done: done}
	return <-done
}

// Submit validates, resolves, and enqueues a request. The returned job may
// already be done (cache hit), may be shared with earlier submissions of
// the same key (coalesced), or may be freshly queued. ErrQueueFull and
// ErrDraining are the refusal modes; resolution failures are client
// errors.
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	res, err := s.resolve(req)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.submitted++

	// Exact-replay fast path: determinism makes the cached bytes the
	// verdict, not an approximation of it.
	if verdict, ok := s.cache.Get(res.key); ok {
		job := s.newJobLocked(res)
		job.publish(verdict, true)
		s.retireLocked(job.ID)
		return job, nil
	}

	// Second-level replay: the durable store. A hit here means some past
	// run — possibly in a previous process — committed this exact key;
	// the WAL bytes are the verdict. Promote into the memory cache so
	// the next replay skips the disk.
	if s.cfg.Store != nil {
		verdict, ok, err := s.cfg.Store.Get(res.key)
		switch {
		case err != nil:
			// A read failure downgrades to a lab run, it never fails the
			// submission: the store is an accelerator, not a dependency.
			s.storeErrors++
		case ok:
			s.storeHits++
			s.cache.Put(res.key, verdict)
			job := s.newJobLocked(res)
			job.publish(verdict, true)
			s.retireLocked(job.ID)
			return job, nil
		}
	}

	// Coalesce: an identical submission already queued or running absorbs
	// this one — same job, one run, shared verdict bytes.
	if job, ok := s.inflight[res.key]; ok {
		s.coalesced++
		return job, nil
	}

	job := s.newJobLocked(res)
	select {
	case s.queue <- job:
		s.inflight[res.key] = job
		return job, nil
	default:
		// Backpressure: refuse rather than block the caller (the HTTP
		// listener turns this into 429 + Retry-After).
		s.rejected++
		delete(s.jobs, job.ID)
		return nil, ErrQueueFull
	}
}

func (s *Server) resolve(req SubmitRequest) (resolved, error) {
	if s.cfg.Resolver != nil {
		spec, key, err := s.cfg.Resolver(req)
		if err != nil {
			return resolved{}, err
		}
		if spec != nil {
			profile := DefaultProfile
			if req.Profile != "" {
				profile = winsim.ProfileName(req.Profile)
				if !winsim.ValidProfile(profile) {
					return resolved{}, fmt.Errorf("unknown profile %q", req.Profile)
				}
			}
			seed := int64(defaultSeed)
			if req.Seed != nil {
				seed = *req.Seed
			}
			return resolved{
				specimen: spec,
				profile:  profile,
				seed:     seed,
				key:      fmt.Sprintf("%s|%s|%d", key, profile, seed),
			}, nil
		}
		// A nil specimen without error means "not mine": fall through to
		// the built-in resolver.
	}
	return resolveRequest(req)
}

// newJobLocked allocates and registers a job; the caller holds s.mu.
func (s *Server) newJobLocked(res resolved) *Job {
	s.nextID++
	job := &Job{
		ID:      fmt.Sprintf("j%08d", s.nextID),
		Key:     res.key,
		spec:    res,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	s.jobs[job.ID] = job
	return job
}

// jobRetention bounds the finished-job registry. Recent enough that any
// reasonable poller finds its verdict, small enough that the daemon's
// memory is dominated by the verdict cache, not job bookkeeping.
const jobRetention = 8192

// retireLocked records a completed job in the retention FIFO and forgets
// the oldest entries beyond the bound. The caller holds s.mu.
func (s *Server) retireLocked(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > jobRetention {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Lookup returns a job by ID.
func (s *Server) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// worker drains the queue. Each worker owns its own labs, one per machine
// profile, so the template-snapshot pool and trace recorders are never
// shared across goroutines; the lab seed is irrelevant because runs go
// through RunSampleSeeded.
func (s *Server) worker() {
	defer s.workers.Done()
	labs := make(map[winsim.ProfileName]*analysis.Lab)
	for job := range s.queue {
		lab, ok := labs[job.spec.profile]
		if !ok {
			lab = &analysis.Lab{
				Profile: job.spec.profile,
				Config:  core.RecommendedConfig(string(job.spec.profile)),
			}
			labs[job.spec.profile] = lab
		}
		s.runJob(lab, job)
	}
}

// runJob executes one job and completes it. The lab already contains every
// in-run failure (runContained recovers panics into SampleResult.Err); the
// enclosing recover is the worker's own last line — it converts a defect in
// the service layer itself (marshalling, a lab bug) into a VerdictError
// result instead of a dead worker and an orphaned job.
func (s *Server) runJob(lab *analysis.Lab, job *Job) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// Skip completion if the job already published (the panic came from
		// after complete); closing Done twice would itself panic.
		job.mu.Lock()
		alreadyDone := job.state == JobDone
		job.mu.Unlock()
		if alreadyDone {
			return
		}
		res := analysis.SampleResult{
			Specimen:        job.spec.specimen,
			Err:             fmt.Errorf("service: job %s panicked outside the lab: %v", job.ID, r),
			Stack:           string(debug.Stack()),
			Verdict:         analysis.Verdict{Category: analysis.VerdictError},
			Attempts:        1,
			RecoveredPanics: 1,
		}
		s.complete(job, mustMarshal(res), res)
	}()

	job.mu.Lock()
	job.state = JobRunning
	job.mu.Unlock()

	res := lab.RunSampleSeeded(job.spec.specimen, job.spec.seed)
	s.complete(job, mustMarshal(res), res)
}

// mustMarshal renders the canonical verdict JSON, degrading to a minimal
// error document if marshalling itself fails (VerdictDoc is plain data, so
// in practice it never does).
func mustMarshal(res analysis.SampleResult) []byte {
	verdict, err := res.MarshalVerdict()
	if err != nil {
		id := ""
		if res.Specimen != nil {
			id = res.Specimen.ID
		}
		verdict = []byte(fmt.Sprintf(`{"specimen":%q,"category":"error","error":%q}`, id, err.Error()))
	}
	return verdict
}

// complete publishes the verdict: resolves the coalescing entry, fills the
// cache (clean runs only — a failed run should be retryable, not pinned),
// updates the aggregate report, and wakes waiters.
func (s *Server) complete(job *Job, verdict []byte, res analysis.SampleResult) {
	// Commit to the WAL before waking waiters: once any client has seen
	// this verdict, a restarted daemon can serve it again. The blocking
	// happens outside s.mu — concurrent workers pile onto the committer's
	// next group commit instead of serializing behind the server lock.
	var commitErr error
	if res.Err == nil && s.cfg.Store != nil {
		if s.commitc != nil {
			commitErr = s.commit(job.Key, verdict)
		} else {
			commitErr = s.cfg.Store.Put(job.Key, verdict)
		}
	}

	s.mu.Lock()
	s.completed++
	s.labRuns++
	s.recoveredPanics += uint64(res.RecoveredPanics)
	s.virtual += res.Raw.VirtualTime + res.Protected.VirtualTime
	if res.Err != nil {
		s.verdictErrors++
	} else {
		s.cache.Put(job.Key, verdict)
		if commitErr != nil {
			s.storeErrors++
		}
	}
	delete(s.inflight, job.Key)
	s.retireLocked(job.ID)
	s.mu.Unlock()

	job.publish(verdict, false)
}

// Shutdown drains gracefully: new submissions are refused immediately,
// queued and running jobs complete, and the call returns when the workers
// exit or the context expires (whichever comes first).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	// Submissions synchronize on s.mu, so nobody can be mid-send here:
	// closing the queue is safe and lets workers drain the backlog.
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		// Workers are the only commit producers, so the committer's
		// channel can close only after they exit; it then flushes any
		// queued batch before stopping.
		if s.commitc != nil {
			close(s.commitc)
		}
		s.committer.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain deadline exceeded: %w", ctx.Err())
	}
}

// Report aggregates the serving state into the lab's sweep-health shape:
// completed runs, error counts, recovered panics, wall and virtual time.
// Throughput() on the result is machine executions per second since Start.
func (s *Server) Report() analysis.RunReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return analysis.RunReport{
		Samples:         int(s.labRuns),
		VerdictErrors:   int(s.verdictErrors),
		RecoveredPanics: int(s.recoveredPanics),
		Workers:         s.cfg.Workers,
		Wall:            time.Since(s.started),
		Virtual:         s.virtual,
	}
}

// Stats is the /statusz snapshot.
type Stats struct {
	Uptime     time.Duration `json:"uptime_ns"`
	Workers    int           `json:"workers"`
	QueueDepth int           `json:"queue_depth"`
	QueueCap   int           `json:"queue_cap"`
	Submitted  uint64        `json:"submitted"`
	Completed  uint64        `json:"completed"`
	Coalesced  uint64        `json:"coalesced"`
	Rejected   uint64        `json:"rejected"`
	LabRuns    uint64        `json:"lab_runs"`

	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheSize      int     `json:"cache_size"`
	CacheHitRate   float64 `json:"cache_hit_rate"`

	// Durable-store counters (zero when persistence is off).
	StoreKeys   int    `json:"store_keys"`
	StoreHits   uint64 `json:"store_hits"`
	StoreErrors uint64 `json:"store_errors"`
	// Compaction cost: how many merges ran, their summed wall time, and
	// the live bytes they rewrote.
	StoreCompactions  uint64 `json:"store_compactions"`
	StoreCompactNanos uint64 `json:"store_compact_nanos"`
	StoreCompactBytes uint64 `json:"store_compact_bytes"`

	// Deterrence-tier counters for the streaming /v1/monitor endpoint.
	MonitorRuns     uint64 `json:"monitor_runs"`
	MonitorDeterred uint64 `json:"monitor_deterred"`
	MonitorRejected uint64 `json:"monitor_rejected"`

	Report      analysis.RunReport `json:"report"`
	ThroughputS float64            `json:"throughput_exec_per_s"`
}

// Snapshot collects the current serving statistics.
func (s *Server) Snapshot() Stats {
	report := s.Report()
	var sto store.Stats
	if s.cfg.Store != nil {
		sto = s.cfg.Store.Stats()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hits, misses, evictions, size := s.cache.Stats()
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return Stats{
		Uptime:            time.Since(s.started),
		Workers:           s.cfg.Workers,
		QueueDepth:        len(s.queue),
		QueueCap:          s.cfg.QueueDepth,
		Submitted:         s.submitted,
		Completed:         s.completed,
		Coalesced:         s.coalesced,
		Rejected:          s.rejected,
		LabRuns:           s.labRuns,
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEvictions:    evictions,
		CacheSize:         size,
		CacheHitRate:      rate,
		StoreKeys:         sto.Keys,
		StoreHits:         s.storeHits,
		StoreErrors:       s.storeErrors,
		StoreCompactions:  sto.Compactions,
		StoreCompactNanos: sto.CompactNanos,
		StoreCompactBytes: sto.CompactBytes,
		MonitorRuns:       s.monitorRuns,
		MonitorDeterred:   s.monitorDeterred,
		MonitorRejected:   s.monitorRejected,
		Report:            report,
		ThroughputS:       report.Throughput(),
	}
}
