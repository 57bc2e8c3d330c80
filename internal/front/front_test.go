package front

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
)

// swapHandler lets a test replace a backend's entire handler (simulated
// restart) or take it down (simulated crash) behind one stable URL.
type swapHandler struct {
	mu   sync.Mutex
	h    http.Handler
	down bool
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.down = false
	s.mu.Unlock()
}

func (s *swapHandler) setDown() {
	s.mu.Lock()
	s.down = true
	s.mu.Unlock()
}

// setUp clears a simulated outage, restoring the installed handler.
func (s *swapHandler) setUp() {
	s.mu.Lock()
	s.down = false
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h, down := s.h, s.down
	s.mu.Unlock()
	if down || h == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"backend down"}`)
		return
	}
	h.ServeHTTP(w, r)
}

// testBackend is one in-process scarecrowd: service + campaign engine +
// optional durable store, behind a swapHandler so tests can crash and
// restart it without changing its URL. Fields are only mutated from the
// test goroutine.
type testBackend struct {
	t    *testing.T
	dir  string // store dir; "" = no persistence
	swap *swapHandler
	ts   *httptest.Server
	srv  *service.Server
	eng  *campaign.Engine
	st   *store.Store
	// hold, when non-nil, keeps every campaign cell from being submitted
	// until it is closed (see newHeldTestBackend).
	hold <-chan struct{}
}

func newTestBackend(t *testing.T, persist bool, engOpts campaign.Options) *testBackend {
	t.Helper()
	return bootTestBackend(t, &testBackend{t: t, swap: &swapHandler{}}, persist, engOpts)
}

// newHeldTestBackend is a non-persistent newTestBackend whose campaigns
// submit no cell until release is called, so a test can set the stage
// (cut a stream, take the backend down) before any verdict exists.
// Cleanup releases a backend the test left held, so it still drains.
func newHeldTestBackend(t *testing.T, engOpts campaign.Options) (tb *testBackend, release func()) {
	t.Helper()
	hold := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	tb = bootTestBackend(t, &testBackend{t: t, swap: &swapHandler{}, hold: hold}, false, engOpts)
	t.Cleanup(release) // registered last, so it runs before the drain
	return tb, release
}

// heldSubmitter blocks every Submit until hold closes.
type heldSubmitter struct {
	campaign.Submitter
	hold <-chan struct{}
}

func (h heldSubmitter) Submit(req service.SubmitRequest) (*service.Job, error) {
	<-h.hold
	return h.Submitter.Submit(req)
}

func bootTestBackend(t *testing.T, tb *testBackend, persist bool, engOpts campaign.Options) *testBackend {
	t.Helper()
	if persist {
		tb.dir = t.TempDir()
	}
	tb.boot(engOpts)
	tb.ts = httptest.NewServer(tb.swap)
	t.Cleanup(func() {
		tb.ts.Close()
		tb.stop()
	})
	return tb
}

// boot builds a fresh service + engine (reopening the store when
// persistent) and installs them as the live handler.
func (tb *testBackend) boot(engOpts campaign.Options) {
	tb.t.Helper()
	if tb.dir != "" {
		st, err := store.Open(tb.dir, store.Options{NoBackground: true})
		if err != nil {
			tb.t.Fatalf("opening store: %v", err)
		}
		tb.st = st
		engOpts.Checkpoints = st
	}
	srv := service.NewServer(service.Config{Workers: 2, QueueDepth: 32, CacheSize: 256, Store: tb.st})
	srv.Start()
	var sub campaign.Submitter = srv
	if tb.hold != nil {
		sub = heldSubmitter{Submitter: srv, hold: tb.hold}
	}
	eng := campaign.NewEngine(sub, engOpts)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	eng.Register(mux)
	tb.srv, tb.eng = srv, eng
	tb.swap.set(mux)
}

// stop gracefully drains the current incarnation (campaigns abort and
// checkpoint) and closes the store.
func (tb *testBackend) stop() {
	tb.t.Helper()
	if tb.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.srv.Shutdown(ctx); err != nil {
		tb.t.Errorf("backend shutdown: %v", err)
	}
	if err := tb.eng.Drain(ctx); err != nil {
		tb.t.Errorf("engine drain: %v", err)
	}
	if tb.st != nil {
		if err := tb.st.Close(); err != nil {
			tb.t.Errorf("store close: %v", err)
		}
		tb.st = nil
	}
	tb.srv, tb.eng = nil, nil
}

// crash takes the backend down mid-flight: the handler answers 503,
// live connections (SSE streams included) are severed, and the old
// incarnation is drained in the background the way a dying process's
// work simply stops mattering.
func (tb *testBackend) crash() {
	tb.t.Helper()
	tb.swap.setDown()
	tb.ts.CloseClientConnections()
	tb.stop()
}

// restart boots a fresh incarnation over the surviving store and
// resumes checkpointed campaigns, as scarecrowd does at startup.
func (tb *testBackend) restart(engOpts campaign.Options) {
	tb.t.Helper()
	tb.boot(engOpts)
	if _, err := tb.eng.Resume(); err != nil {
		tb.t.Fatalf("resume after restart: %v", err)
	}
}

// startFront builds a front over the given backends.
func startFront(t *testing.T, opts Options, backends ...*testBackend) *Front {
	t.Helper()
	for _, tb := range backends {
		opts.Backends = append(opts.Backends, tb.ts.URL)
	}
	f, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.Start()
	t.Cleanup(f.Close)
	return f
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return buf
}

// specimenOwnedBy finds a catalog specimen whose default-submission
// route key lands on the given backend index.
func specimenOwnedBy(t *testing.T, f *Front, idx int) string {
	t.Helper()
	for _, name := range []string{"kasidet", "wannacry", "locky", "scaware", "spawner", "toolkiller"} {
		key, err := service.RouteKey(service.SubmitRequest{Specimen: name})
		if err != nil {
			t.Fatalf("RouteKey(%s): %v", name, err)
		}
		if f.ring.owner(key) == idx {
			return name
		}
	}
	t.Fatalf("no catalog specimen routes to backend %d", idx)
	return ""
}

// The front proxies /v1/verdict to the owning backend with verdict
// bytes untouched and the cache/job headers preserved (job ID
// namespaced into the front's space).
func TestVerdictProxyByteIdentical(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{})
	b1 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{}, b0, b1)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	spec := specimenOwnedBy(t, f, 1)
	body := fmt.Sprintf(`{"specimen":%q}`, spec)

	resp := postJSON(t, ts.URL+"/v1/verdict", body)
	front1 := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict via front = %d: %s", resp.StatusCode, front1)
	}
	job := resp.Header.Get("X-Scarecrow-Job")
	if !strings.HasPrefix(job, "b1-") {
		t.Fatalf("X-Scarecrow-Job = %q, want b1- namespaced", job)
	}

	// Same submission straight to the backend: identical bytes.
	direct := readBody(t, postJSON(t, b1.ts.URL+"/v1/verdict", body))
	if !bytes.Equal(front1, direct) {
		t.Fatalf("front verdict differs from backend verdict:\n%s\n%s", front1, direct)
	}

	// Replay through the front: cache hit header preserved, bytes exact.
	resp = postJSON(t, ts.URL+"/v1/verdict", body)
	front2 := readBody(t, resp)
	if resp.Header.Get("X-Scarecrow-Cache") != "hit" {
		t.Fatalf("replay lost X-Scarecrow-Cache: %v", resp.Header)
	}
	if !bytes.Equal(front1, front2) {
		t.Fatalf("replay bytes differ through the front")
	}
}

// Async flow: submit through the front, poll the namespaced job ID, get
// the owning backend's verdict.
func TestSubmitResultRoundTrip(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{})
	b1 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{}, b0, b1)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	spec := specimenOwnedBy(t, f, 0)
	resp := postJSON(t, ts.URL+"/v1/submit", fmt.Sprintf(`{"specimen":%q}`, spec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var sub struct {
		ID     string `json:"id"`
		Result string `json:"result"`
	}
	if err := json.Unmarshal(readBody(t, resp), &sub); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if !strings.HasPrefix(sub.ID, "b0-") || sub.Result != "/v1/result/"+sub.ID {
		t.Fatalf("submit response not namespaced: %+v", sub)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + sub.Result)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var res struct {
			ID      string          `json:"id"`
			State   string          `json:"state"`
			Verdict json.RawMessage `json:"verdict"`
		}
		if err := json.Unmarshal(readBody(t, resp), &res); err != nil {
			t.Fatalf("decoding result: %v", err)
		}
		if res.ID != sub.ID {
			t.Fatalf("result ID %q != submitted %q", res.ID, sub.ID)
		}
		if res.State == "done" {
			if len(res.Verdict) == 0 {
				t.Fatal("done result carries no verdict")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", sub.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unknown and malformed job IDs are 404s.
	for _, id := range []string{"b9-j00000001", "nonsense", "b0-"} {
		resp, err := http.Get(ts.URL + "/v1/result/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("result %q = %d, want 404", id, resp.StatusCode)
		}
	}
}

// The backend's backpressure and drain responses pass through the front
// verbatim: the 429's Retry-After is the backend's own deterministic
// per-key jitter, not a front-synthesized value, and the 503 and
// X-Scarecrow-* headers survive untouched. Pinned with a stub backend
// so the expected header values are exact.
func TestBackpressureHeaderPassthrough(t *testing.T) {
	stub := http.NewServeMux()
	stub.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	stub.HandleFunc("/v1/submit", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"queue full"}`)
	})
	stub.HandleFunc("/v1/verdict", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Scarecrow-Job", "j00000042")
		w.Header().Set("X-Scarecrow-Cache", "hit")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"service draining"}`)
	})
	backend := httptest.NewServer(stub)
	defer backend.Close()

	f, err := New(Options{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/submit", `{"specimen":"kasidet"}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q through the front, want the backend's verbatim \"7\"", got)
	}
	if !bytes.Contains(body, []byte("queue full")) {
		t.Fatalf("429 body rewritten: %s", body)
	}

	resp = postJSON(t, ts.URL+"/v1/verdict", `{"specimen":"kasidet"}`)
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verdict = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Scarecrow-Cache"); got != "hit" {
		t.Fatalf("X-Scarecrow-Cache = %q, want verbatim \"hit\"", got)
	}
	if got := resp.Header.Get("X-Scarecrow-Job"); got != "b0-j00000042" {
		t.Fatalf("X-Scarecrow-Job = %q, want namespaced b0-j00000042", got)
	}
	if !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("503 body rewritten: %s", body)
	}
}

// A degraded backend parks only its own shard: keys it owns answer 503,
// keys owned by healthy backends keep serving, and the front's healthz
// reports degraded rather than down.
func TestDegradedBackendParksOnlyItsShard(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{})
	b1 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{HealthInterval: 20 * time.Millisecond}, b0, b1)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	deadSpec := specimenOwnedBy(t, f, 1)
	liveSpec := specimenOwnedBy(t, f, 0)
	b1.crash()
	// Wait for the health sweep to notice.
	deadline := time.Now().Add(10 * time.Second)
	for f.backends[1].isHealthy() {
		if time.Now().After(deadline) {
			t.Fatal("health sweep never marked the crashed backend degraded")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/verdict", fmt.Sprintf(`{"specimen":%q}`, deadSpec))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("degraded")) {
		t.Fatalf("dead shard answered %d: %s", resp.StatusCode, body)
	}
	resp = postJSON(t, ts.URL+"/v1/verdict", fmt.Sprintf(`{"specimen":%q}`, liveSpec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live shard answered %d: %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("degraded")) {
		t.Fatalf("front healthz = %d %s, want 200 degraded", resp.StatusCode, body)
	}
}

// sseEvent is one parsed frame of a front event stream.
type sseEvent struct {
	id   uint64
	ev   campaign.Event
	kind string
}

// readSSE consumes an SSE body until EOF, returning the parsed frames.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.ev); err != nil {
				t.Fatalf("undecodable SSE data: %v", err)
			}
		case line == "":
			if cur.kind != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return out
}
