package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scarecrow/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoBackground: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// The durability contract end to end: a verdict computed by one server
// generation is served byte-identical by the next from the WAL alone —
// no lab run, flagged as a cache hit — after a restart that empties the
// in-memory cache.
func TestStoreServesVerdictsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := catalogRequest(11)

	st1 := openStore(t, dir)
	s1 := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16, Store: st1})
	s1.Start()
	j1 := mustSubmit(t, s1, req)
	waitDone(t, j1)
	want := j1.Verdict()
	shutdown(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}

	// Second generation: fresh server, fresh cache, reopened WAL.
	st2 := openStore(t, dir)
	if st2.Len() != 1 {
		t.Fatalf("reopened store has %d keys, want 1", st2.Len())
	}
	s2 := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16, Store: st2})
	s2.Start()
	defer shutdown(t, s2)

	j2 := mustSubmit(t, s2, req)
	if !j2.CacheHit() {
		t.Fatalf("restarted daemon did not serve the committed verdict as a hit")
	}
	if !bytes.Equal(j2.Verdict(), want) {
		t.Fatalf("WAL verdict differs from computed verdict:\n%s\nvs\n%s", j2.Verdict(), want)
	}
	snap := s2.Snapshot()
	if snap.LabRuns != 0 {
		t.Fatalf("restart replay ran the lab %d times, want 0", snap.LabRuns)
	}
	if snap.StoreHits != 1 {
		t.Fatalf("StoreHits = %d, want 1", snap.StoreHits)
	}

	// The store hit was promoted into the memory cache: a third replay
	// must not touch the store again.
	j3 := mustSubmit(t, s2, req)
	if !j3.CacheHit() {
		t.Fatalf("promoted verdict not served from memory")
	}
	if got := s2.Snapshot().StoreHits; got != 1 {
		t.Fatalf("StoreHits = %d after promoted replay, want still 1", got)
	}
}

// Error verdicts must stay retryable: they are neither cached nor
// persisted, so the WAL holds only clean verdicts and a restart re-runs
// failures.
func TestErrorVerdictsNotPersisted(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16, Store: st, Resolver: panicResolver})
	s.Start()
	defer shutdown(t, s)
	bomb := mustSubmit(t, s, SubmitRequest{Specimen: "panic-bomb"})
	waitDone(t, bomb)
	if st.Len() != 0 {
		t.Fatalf("store holds %d keys after an error verdict, want 0", st.Len())
	}
	// A clean verdict alongside it does persist.
	ok := mustSubmit(t, s, catalogRequest(5))
	waitDone(t, ok)
	if st.Len() != 1 {
		t.Fatalf("store holds %d keys after a clean verdict, want 1", st.Len())
	}
}

// The sync verdict handler advertises store-served replays with the same
// X-Scarecrow-Cache header the memory cache uses, so clients (and the
// service-smoke SIGKILL test) can assert durability over plain HTTP.
func TestHandlerMarksStoreHitAfterRestart(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"specimen":"kasidet","seed":23}`)

	st1 := openStore(t, dir)
	s1 := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16, Store: st1})
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	resp, err := http.Post(ts1.URL+"/v1/verdict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("first verdict: %v", err)
	}
	resp.Body.Close()
	ts1.Close()
	shutdown(t, s1)
	st1.Close()

	st2 := openStore(t, dir)
	s2 := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16, Store: st2})
	s2.Start()
	defer shutdown(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/v1/verdict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("replay verdict: %v", err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Scarecrow-Cache"); got != "hit" {
		t.Fatalf("X-Scarecrow-Cache = %q after restart, want hit", got)
	}
}

// Compaction cost reaches operators through /metrics: the count, the
// summed merge time and the bytes rewritten, read from store.Stats.
func TestMetricsExportCompactionCost(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{SegmentBytes: 1, NoBackground: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	s := NewServer(Config{Workers: 1, QueueDepth: 8, CacheSize: 16, Store: st})
	s.Start()
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	metrics := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		var m map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decoding metrics: %v", err)
		}
		return m
	}
	before := metrics()
	for _, key := range []string{"store_compactions", "store_compact_ms_total", "store_compact_bytes_total"} {
		if v, ok := before[key]; !ok || v != 0 {
			t.Fatalf("before any compaction %s = %v (present %v), want 0", key, v, ok)
		}
	}

	// One-byte segments seal on every commit, so three verdicts leave
	// enough sealed segments to compact.
	for seed := int64(1); seed <= 3; seed++ {
		waitDone(t, mustSubmit(t, s, catalogRequest(seed)))
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := st.Stats()
	after := metrics()
	if after["store_compactions"] != 1 {
		t.Errorf("store_compactions = %v, want 1", after["store_compactions"])
	}
	if got := after["store_compact_bytes_total"]; got <= 0 || got != float64(want.CompactBytes) {
		t.Errorf("store_compact_bytes_total = %v, want %d", got, want.CompactBytes)
	}
	if got := after["store_compact_ms_total"]; got <= 0 || got != float64(want.CompactNanos)/1e6 {
		t.Errorf("store_compact_ms_total = %v, want %v", got, float64(want.CompactNanos)/1e6)
	}
}

// Retry-After jitter: deterministic per job key, bounded above the base,
// and actually spread — not the constant that made synchronized clients
// stampede in lockstep.
func TestRetryAfterJitterDeterministicAndSpread(t *testing.T) {
	s := NewServer(Config{Workers: 1, RetryAfter: 2 * time.Second})
	seen := make(map[int]bool)
	for seed := int64(0); seed < 16; seed++ {
		req := catalogRequest(seed)
		a := s.retryAfterSeconds(req)
		b := s.retryAfterSeconds(req)
		if a != b {
			t.Fatalf("seed %d: jitter not deterministic: %d then %d", seed, a, b)
		}
		if a < 2 || a > 5 {
			t.Fatalf("seed %d: Retry-After %d outside [base, base+3]", seed, a)
		}
		seen[a] = true
	}
	if len(seen) < 2 {
		t.Fatalf("16 distinct keys produced a single Retry-After value %v — jitter is not spreading", seen)
	}
	// Recipes jitter too, and differently ordered checks are different
	// jobs with (in general) different backoffs.
	r1 := SubmitRequest{Recipe: &Recipe{Checks: []string{"debugger-api", "small-ram"}}}
	if a, b := s.retryAfterSeconds(r1), s.retryAfterSeconds(r1); a != b {
		t.Fatalf("recipe jitter not deterministic: %d vs %d", a, b)
	}
}

// A full queue surfaces the jittered Retry-After over HTTP.
func TestQueueFullAdvertisesJitteredRetryAfter(t *testing.T) {
	// No Start(): jobs queue up and nothing drains, so the 1-deep queue
	// overflows deterministically on the second distinct key.
	s := NewServer(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed int) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"specimen":"kasidet","seed":%d}`, seed)
		resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	resp := post(2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	want := s.retryAfterSeconds(catalogRequest(2))
	if ra != fmt.Sprint(want) {
		t.Fatalf("Retry-After = %q, want %d (deterministic per-key jitter)", ra, want)
	}
	// Unblock the queued job so the server can be torn down cleanly.
	s.Start()
	shutdown(t, s)
}
