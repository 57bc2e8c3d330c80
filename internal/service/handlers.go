package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// submitResponse is the body of POST /v1/submit.
type submitResponse struct {
	ID string `json:"id"`
	// State at acceptance time: "done" on a cache hit, "queued" otherwise.
	State JobState `json:"state"`
	// CacheHit marks verdicts served without a run.
	CacheHit bool `json:"cache_hit"`
	// Result points at the polling endpoint.
	Result string `json:"result"`
}

// resultResponse is the body of GET /v1/result/{id}. Verdict is the
// canonical verdict JSON, present once State is "done".
type resultResponse struct {
	ID       string          `json:"id"`
	State    JobState        `json:"state"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Verdict  json.RawMessage `json:"verdict,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/submit   — enqueue, return a job id immediately
//	GET  /v1/result/  — poll a job by id
//	POST /v1/verdict  — submit and wait for the verdict (synchronous)
//	POST /v1/monitor  — run under the deterrence tier, stream SSE events
//	GET  /healthz     — liveness
//	GET  /statusz     — serving statistics + aggregated run report
//	GET  /metrics     — expvar-format counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/result/", s.handleResult)
	mux.HandleFunc("/v1/verdict", s.handleVerdict)
	mux.HandleFunc("/v1/monitor", s.handleMonitor)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Connection timeouts of the daemons' HTTP servers. A client gets
// readHeaderTimeout to finish its request headers and an idle keep-alive
// connection is closed after idleTimeout, so neither can hold a
// connection forever. There is deliberately no read or write timeout:
// the read deadline would cancel the request context of long-lived
// campaign and /v1/monitor streams, and the write deadline would cut
// them off.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server scarecrowd and scarefront serve
// their handler with.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// WriteSSE writes one Server-Sent Event frame: id, event name, and a
// single-line data payload. It is the frame writer of both
// /v1/monitor and the campaign event streams.
func WriteSSE(w io.Writer, id uint64, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	return err
}

// submitError maps a Submit failure to its HTTP status. Queue-full carries
// Retry-After so well-behaved clients back off instead of hammering.
func (s *Server) submitError(w http.ResponseWriter, req SubmitRequest, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(req)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

// retryAfterSeconds is the 429 backoff for one request: the configured
// base plus a deterministic 0–3 s jitter derived from the job key. A
// constant Retry-After makes synchronized clients (a load generator
// fanning out identical workers) retry in lockstep and collide with the
// same full queue again; keying the jitter off the request spreads the
// herd while staying reproducible — the same submission always hears the
// same backoff, so tests and traces are stable.
func (s *Server) retryAfterSeconds(req SubmitRequest) int {
	base := int(s.cfg.RetryAfter.Seconds() + 0.5)
	if base < 1 {
		base = 1
	}
	return base + int(fnvHash(jitterKey(req))%4)
}

func decodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return SubmitRequest{}, false
	}
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
		return SubmitRequest{}, false
	}
	return req, true
}

// handleSubmit accepts a submission and returns immediately with a job id.
// The enqueue itself never blocks: a full queue is a 429, so the listener
// goroutine always stays responsive.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeSubmit(w, r)
	if !ok {
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		s.submitError(w, req, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:       job.ID,
		State:    job.State(),
		CacheHit: job.CacheHit(),
		Result:   "/v1/result/" + job.ID,
	})
}

// handleResult polls a job.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/result/")
	job, ok := s.Lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, resultResponse{
		ID:       job.ID,
		State:    job.State(),
		CacheHit: job.CacheHit(),
		Verdict:  json.RawMessage(job.Verdict()),
	})
}

// handleVerdict is the synchronous path: submit and block until the verdict
// is available or the client goes away. Backpressure still applies — a full
// queue rejects rather than parking the request.
func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeSubmit(w, r)
	if !ok {
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		s.submitError(w, req, err)
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client gone; the job still completes and feeds the cache.
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Scarecrow-Job", job.ID)
	if job.CacheHit() {
		w.Header().Set("X-Scarecrow-Cache", "hit")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(job.Verdict())
	_, _ = w.Write([]byte("\n"))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleMetrics renders the counters in expvar's JSON map format. The map
// is built per request from an unpublished expvar.Map — the process-global
// expvar registry would collide across the multiple Server instances the
// tests run.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	m := new(expvar.Map).Init()
	addInt := func(key string, v int64) {
		i := new(expvar.Int)
		i.Set(v)
		m.Set(key, i)
	}
	addInt("submitted", int64(st.Submitted))
	addInt("completed", int64(st.Completed))
	addInt("coalesced", int64(st.Coalesced))
	addInt("rejected", int64(st.Rejected))
	addInt("lab_runs", int64(st.LabRuns))
	addInt("cache_hits", int64(st.CacheHits))
	addInt("cache_misses", int64(st.CacheMisses))
	addInt("cache_evictions", int64(st.CacheEvictions))
	addInt("cache_size", int64(st.CacheSize))
	addInt("store_keys", int64(st.StoreKeys))
	addInt("store_hits", int64(st.StoreHits))
	addInt("store_errors", int64(st.StoreErrors))
	addInt("store_compactions", int64(st.StoreCompactions))
	addInt("store_compact_bytes_total", int64(st.StoreCompactBytes))
	addInt("store_put_bytes_total", int64(st.StorePutBytes))
	addInt("store_segments", int64(st.StoreSegments))
	addInt("store_dead_bytes", st.StoreDeadBytes)
	addInt("monitor_runs", int64(st.MonitorRuns))
	addInt("monitor_deterred", int64(st.MonitorDeterred))
	addInt("monitor_rejected", int64(st.MonitorRejected))
	addInt("queue_depth", int64(st.QueueDepth))
	addInt("workers", int64(st.Workers))
	addInt("verdict_errors", int64(st.Report.VerdictErrors))
	addInt("recovered_panics", int64(st.Report.RecoveredPanics))
	f := new(expvar.Float)
	f.Set(st.CacheHitRate)
	m.Set("cache_hit_rate", f)
	compactMs := new(expvar.Float)
	compactMs.Set(float64(st.StoreCompactNanos) / 1e6)
	m.Set("store_compact_ms_total", compactMs)
	// Per-shard cache counters: a skewed key distribution shows up here
	// as one shard soaking the traffic the sharding was meant to spread.
	for i, sh := range s.cache.PerShard() {
		prefix := fmt.Sprintf("cache_shard_%02d_", i)
		addInt(prefix+"hits", int64(sh.Hits))
		addInt(prefix+"misses", int64(sh.Misses))
		addInt(prefix+"evictions", int64(sh.Evictions))
		addInt(prefix+"size", int64(sh.Size))
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "%s\n", m.String())
}
