package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/evasion"
	"scarecrow/internal/malware"
	"scarecrow/internal/winapi"
)

func seedPtr(v int64) *int64 { return &v }

func catalogRequest(seed int64) SubmitRequest {
	return SubmitRequest{Specimen: "kasidet", Seed: seedPtr(seed)}
}

func mustSubmit(t *testing.T, s *Server, req SubmitRequest) *Job {
	t.Helper()
	job, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", req, err)
	}
	return job
}

func waitDone(t *testing.T, job *Job) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not complete", job.ID)
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// Acceptance (a): identical (specimen, profile, seed) submissions return
// byte-identical verdict JSON with exactly one lab run — the first pair
// coalesces onto one job, the post-completion replay is a cache hit.
func TestCoalescingAndCacheOneLabRun(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16})
	req := catalogRequest(7)

	// Submissions land before Start so both are in flight together —
	// deterministic coalescing, no timing dependence.
	j1 := mustSubmit(t, s, req)
	j2 := mustSubmit(t, s, req)
	if j1 != j2 {
		t.Fatalf("identical in-flight submissions got distinct jobs %s and %s", j1.ID, j2.ID)
	}

	s.Start()
	defer shutdown(t, s)
	waitDone(t, j1)

	if st := s.Snapshot(); st.LabRuns != 1 {
		t.Fatalf("LabRuns = %d, want exactly 1 (coalescing failed)", st.LabRuns)
	}
	if st := s.Snapshot(); st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}

	// Replay after completion: served from cache, no second run, and the
	// bytes are identical — determinism makes the cached verdict exact.
	j3 := mustSubmit(t, s, req)
	if !j3.CacheHit() {
		t.Fatalf("post-completion replay was not a cache hit")
	}
	if j3.State() != JobDone {
		t.Fatalf("cache-hit job state = %s, want done", j3.State())
	}
	if !bytes.Equal(j1.Verdict(), j3.Verdict()) {
		t.Fatalf("cached verdict differs from computed verdict:\n%s\nvs\n%s", j1.Verdict(), j3.Verdict())
	}
	if st := s.Snapshot(); st.LabRuns != 1 {
		t.Fatalf("LabRuns = %d after cache hit, want still 1", st.LabRuns)
	}

	// The verdict is well-formed and names the specimen.
	var doc analysis.VerdictDoc
	if err := json.Unmarshal(j1.Verdict(), &doc); err != nil {
		t.Fatalf("verdict is not valid JSON: %v", err)
	}
	if doc.Family != "Kasidet" {
		t.Errorf("verdict family = %q, want Kasidet", doc.Family)
	}
	if doc.Category == analysis.VerdictError.String() {
		t.Errorf("run errored: %s", doc.Error)
	}
}

// A different seed is a different key: no coalescing, two runs.
func TestDistinctSeedsDoNotCoalesce(t *testing.T) {
	s := NewServer(Config{Workers: 2, QueueDepth: 8, CacheSize: 16})
	j1 := mustSubmit(t, s, catalogRequest(1))
	j2 := mustSubmit(t, s, catalogRequest(2))
	if j1 == j2 {
		t.Fatalf("distinct seeds coalesced onto one job")
	}
	s.Start()
	defer shutdown(t, s)
	waitDone(t, j1)
	waitDone(t, j2)
	if st := s.Snapshot(); st.LabRuns != 2 {
		t.Fatalf("LabRuns = %d, want 2", st.LabRuns)
	}
}

// Acceptance (b): a full queue refuses immediately with ErrQueueFull — the
// submission path never blocks — and the HTTP layer turns that into 429
// with Retry-After.
func TestQueueFullRejects(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 1, CacheSize: 16})
	// Workers not started: the single queue slot fills and stays full.
	mustSubmit(t, s, catalogRequest(1))

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(catalogRequest(2))
		done <- err
	}()
	select {
	case err := <-done:
		if err != ErrQueueFull {
			t.Fatalf("Submit on full queue: got %v, want ErrQueueFull", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Submit blocked on a full queue instead of rejecting")
	}

	// The HTTP layer: 429 + Retry-After, and the listener stays live.
	body, _ := json.Marshal(catalogRequest(3))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit: status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("429 response missing Retry-After header")
	}

	// Reads still served while the queue is jammed.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz during backpressure: status %d, want 200", rec.Code)
	}

	s.Start()
	shutdown(t, s)
	if st := s.Snapshot(); st.Rejected < 2 {
		t.Errorf("Rejected = %d, want >= 2", st.Rejected)
	}
}

// panicResolver extends the catalog with a specimen whose payload panics —
// no evasive checks, so the payload (and the panic) always runs. The panic
// escapes the cooperative scheduler (runOne rethrows unsanctioned panics)
// and must be absorbed by the lab's containment boundary.
func panicResolver(req SubmitRequest) (*malware.Specimen, string, error) {
	if req.Specimen != "panic-bomb" {
		return nil, "", nil // not ours: fall through to the built-in resolver
	}
	return &malware.Specimen{
		ID:      "PanicBomb",
		Family:  "Test",
		Source:  "test",
		Image:   malware.ImagePath("panicbomb"),
		Checks:  []evasion.Check{},
		React:   malware.ReactTerminate(),
		Payload: func(ctx *winapi.Context) int { panic("payload detonated") },
	}, "test:panic-bomb", nil
}

// Acceptance (c): a panic inside a run is contained — the job completes
// with a VerdictError document and the worker keeps serving later jobs.
func TestWorkerPanicContained(t *testing.T) {
	s := NewServer(Config{
		Workers:    1,
		QueueDepth: 8,
		CacheSize:  16,
		Resolver:   panicResolver,
	})
	s.Start()
	defer shutdown(t, s)

	bomb := mustSubmit(t, s, SubmitRequest{Specimen: "panic-bomb"})
	waitDone(t, bomb)

	var doc analysis.VerdictDoc
	if err := json.Unmarshal(bomb.Verdict(), &doc); err != nil {
		t.Fatalf("panic verdict is not valid JSON: %v", err)
	}
	if doc.Category != analysis.VerdictError.String() {
		t.Fatalf("panic run category = %q, want error", doc.Category)
	}
	if doc.Error == "" || doc.RecoveredPanics == 0 {
		t.Fatalf("panic run should record the error and the recovered panic, got %+v", doc)
	}

	// Error results are not cached: a retry runs again.
	retry := mustSubmit(t, s, SubmitRequest{Specimen: "panic-bomb"})
	if retry.CacheHit() {
		t.Fatalf("errored verdict was served from cache")
	}
	waitDone(t, retry)

	// The same worker serves a healthy job afterwards.
	ok := mustSubmit(t, s, catalogRequest(11))
	waitDone(t, ok)
	if err := json.Unmarshal(ok.Verdict(), &doc); err != nil {
		t.Fatalf("post-panic verdict invalid: %v", err)
	}
	if doc.Category == analysis.VerdictError.String() {
		t.Fatalf("worker poisoned: healthy job after panic errored: %s", doc.Error)
	}
	if st := s.Snapshot(); st.Report.RecoveredPanics < 2 {
		t.Errorf("RecoveredPanics = %d, want >= 2", st.Report.RecoveredPanics)
	}
}

// Acceptance (d): Shutdown refuses new work immediately but drains every
// queued and running job before returning.
func TestGracefulShutdownDrains(t *testing.T) {
	s := NewServer(Config{Workers: 2, QueueDepth: 16, CacheSize: 16})
	jobs := make([]*Job, 0, 6)
	for seed := int64(1); seed <= 6; seed++ {
		jobs = append(jobs, mustSubmit(t, s, catalogRequest(seed)))
	}
	s.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain: %v", err)
	}

	for _, job := range jobs {
		if job.State() != JobDone {
			t.Errorf("job %s state after drain = %s, want done", job.ID, job.State())
		}
		if job.Verdict() == nil {
			t.Errorf("job %s has no verdict after drain", job.ID)
		}
	}
	if _, err := s.Submit(catalogRequest(99)); err != ErrDraining {
		t.Errorf("Submit after Shutdown: got %v, want ErrDraining", err)
	}
	// Second Shutdown is a no-op, not a panic.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("repeated Shutdown: %v", err)
	}
}

// The full HTTP round trip: synchronous verdict, async submit + poll,
// statusz and metrics.
func TestHTTPEndToEnd(t *testing.T) {
	s := NewServer(Config{Workers: 2, QueueDepth: 16, CacheSize: 16})
	s.Start()
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Synchronous verdict.
	body, _ := json.Marshal(SubmitRequest{Specimen: "wannacry", Seed: seedPtr(3)})
	resp, err := http.Post(ts.URL+"/v1/verdict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/verdict: %v", err)
	}
	verdict1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/verdict: status %d, body %s", resp.StatusCode, verdict1)
	}
	var doc analysis.VerdictDoc
	if err := json.Unmarshal(verdict1, &doc); err != nil {
		t.Fatalf("verdict body invalid: %v", err)
	}
	if doc.Specimen == "" {
		t.Fatalf("verdict has no specimen: %s", verdict1)
	}

	// Replay: the cache serves byte-identical bytes and marks the hit.
	resp, err = http.Post(ts.URL+"/v1/verdict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/verdict (replay): %v", err)
	}
	verdict2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Scarecrow-Cache") != "hit" {
		t.Errorf("replay missing X-Scarecrow-Cache: hit header")
	}
	if !bytes.Equal(verdict1, verdict2) {
		t.Fatalf("replayed verdict differs:\n%s\nvs\n%s", verdict1, verdict2)
	}

	// Async: submit, wait on the job's completion channel, then read the
	// result once. Blocking on Done instead of polling GET keeps the test
	// wall-clock-free: it proceeds the instant the worker publishes.
	body, _ = json.Marshal(SubmitRequest{Specimen: "locky", Seed: seedPtr(4)})
	resp, err = http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/submit: %v", err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status %d, response %+v", resp.StatusCode, sub)
	}
	job, ok := s.Lookup(sub.ID)
	if !ok {
		t.Fatalf("submitted job %s not in the registry", sub.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s still %s at deadline", sub.ID, job.State())
	}
	var res resultResponse
	resp, err = http.Get(ts.URL + sub.Result)
	if err != nil {
		t.Fatalf("GET %s: %v", sub.Result, err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	resp.Body.Close()
	if res.State != JobDone {
		t.Fatalf("job %s state = %s after Done, want done", sub.ID, res.State)
	}
	if len(res.Verdict) == 0 {
		t.Fatalf("done job has empty verdict")
	}

	// Unknown job is a 404.
	resp, err = http.Get(ts.URL + "/v1/result/j99999999")
	if err != nil {
		t.Fatalf("GET unknown job: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// Bad requests are 400s.
	for _, bad := range []string{
		`{"specimen":"nope"}`,
		`{"specimen":"wannacry","profile":"not-a-profile"}`,
		`{}`,
		`{"specimen":"wannacry","recipe":{"checks":["debugger-api"]}}`,
		`not json`,
	} {
		resp, err = http.Post(ts.URL+"/v1/verdict", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST bad request: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// statusz reflects the session.
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding statusz: %v", err)
	}
	resp.Body.Close()
	if st.LabRuns < 2 || st.CacheHits < 1 {
		t.Errorf("statusz: LabRuns=%d CacheHits=%d, want >=2 and >=1", st.LabRuns, st.CacheHits)
	}

	// metrics is valid expvar-style JSON with the counters present.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	resp.Body.Close()
	for _, key := range []string{"submitted", "completed", "lab_runs", "cache_hits", "cache_hit_rate"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, metrics)
		}
	}
}

// A recipe specimen runs end to end and caches on its canonical form.
func TestRecipeVerdict(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16})
	s.Start()
	defer shutdown(t, s)

	req := SubmitRequest{
		Recipe: &Recipe{
			Checks:  []string{"debugger-api", "vbox-registry"},
			React:   "terminate",
			Payload: "ransomware",
		},
		Seed: seedPtr(5),
	}
	j1 := mustSubmit(t, s, req)
	waitDone(t, j1)
	var doc analysis.VerdictDoc
	if err := json.Unmarshal(j1.Verdict(), &doc); err != nil {
		t.Fatalf("recipe verdict invalid: %v", err)
	}
	if doc.Category == analysis.VerdictError.String() {
		t.Fatalf("recipe run errored: %s", doc.Error)
	}
	if !strings.HasPrefix(doc.Specimen, "rcp") {
		t.Errorf("recipe specimen ID = %q, want rcp-prefixed", doc.Specimen)
	}

	// Same recipe again: cache hit, identical bytes.
	j2 := mustSubmit(t, s, req)
	if !j2.CacheHit() {
		t.Fatalf("identical recipe was not a cache hit")
	}
	if !bytes.Equal(j1.Verdict(), j2.Verdict()) {
		t.Fatalf("recipe replay bytes differ")
	}
}

// Both daemons serve through NewHTTPServer: a client must finish its
// headers within readHeaderTimeout and an idle keep-alive connection is
// closed, while the read and write deadlines stay unset so long-lived
// campaign and monitor streams are neither cancelled nor cut off.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := NewHTTPServer(h)
	if srv.Handler != h {
		t.Error("NewHTTPServer dropped the handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (> 0)", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v (> 0)", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; both must stay 0 for streams", srv.ReadTimeout, srv.WriteTimeout)
	}
}

func TestWriteSSEFrame(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSSE(&b, 7, "verdict", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "id: 7\nevent: verdict\ndata: {\"a\":1}\n\n"; got != want {
		t.Errorf("frame = %q, want %q", got, want)
	}
}
