package campaign

import (
	"bufio"
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

	"scarecrow/internal/service"
)

func startServer(t *testing.T, cfg service.Config) *service.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 64
	}
	s := service.NewServer(cfg)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

func waitCampaign(t *testing.T, c *Campaign) Summary {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("campaign %s did not finish: %+v", c.ID, c.Snapshot())
	}
	return c.Snapshot()
}

func TestManifestExpansion(t *testing.T) {
	jobs, err := Manifest{
		Specimens: []string{"a", "b"},
		Profiles:  []string{"p1", "p2"},
		Seeds:     []int64{1, 2, 3},
	}.expand(100)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(jobs) != 12 {
		t.Fatalf("expanded %d jobs, want 12", len(jobs))
	}
	// Deterministic specimen-major order; first cell is (a, p1, 1).
	sameCell := func(j jobSpec, spec, prof string, seed int64) bool {
		return j.Specimen == spec && j.Profile == prof && j.Seed == seed && j.Predicate == nil
	}
	if !sameCell(jobs[0], "a", "p1", 1) || !sameCell(jobs[11], "b", "p2", 3) {
		t.Fatalf("unexpected expansion order: first %+v last %+v", jobs[0], jobs[11])
	}

	// Defaults: empty profile means "service default", seeds default to 1.
	jobs, err = Manifest{Specimens: []string{"a"}}.expand(100)
	if err != nil {
		t.Fatalf("expand defaults: %v", err)
	}
	if len(jobs) != 1 || !sameCell(jobs[0], "a", "", 1) {
		t.Fatalf("default expansion: %+v", jobs)
	}

	if _, err := (Manifest{}).expand(100); err == nil {
		t.Fatal("empty manifest expanded without error")
	}
	if _, err := (Manifest{Specimens: []string{"a", "b", "c"}}).expand(2); err == nil {
		t.Fatal("over-limit manifest expanded without error")
	}
}

// A full sweep: every cell of the cross product completes, the category
// tallies sum to the job count, and the event stream is exactly one
// verdict event per job followed by one terminal summary with dense
// sequence numbers.
func TestCampaignSweepTalliesAndEvents(t *testing.T) {
	s := startServer(t, service.Config{})
	e := NewEngine(s, Options{})
	c, err := e.Launch(Manifest{
		Specimens: []string{"kasidet", "wannacry"},
		Seeds:     []int64{1, 2},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sum := waitCampaign(t, c)

	if sum.State != StateDone {
		t.Fatalf("state = %q, want done", sum.State)
	}
	if sum.Total != 4 || sum.Completed != 4 {
		t.Fatalf("completed %d/%d, want 4/4", sum.Completed, sum.Total)
	}
	if sum.Errors != 0 {
		t.Fatalf("errors = %d, want 0", sum.Errors)
	}
	var catTotal int
	for _, n := range sum.Categories {
		catTotal += n
	}
	if catTotal != 4 {
		t.Fatalf("category tallies sum to %d, want 4 (%v)", catTotal, sum.Categories)
	}
	if sum.WallS <= 0 || sum.VerdictsPerS <= 0 {
		t.Fatalf("throughput not recorded: %+v", sum)
	}

	evs, oldest := c.eventsSince(0)
	if oldest != 1 || len(evs) != 5 {
		t.Fatalf("got %d events from seq %d, want 5 from 1", len(evs), oldest)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want dense numbering", i, ev.Seq)
		}
	}
	for _, ev := range evs[:4] {
		if ev.Type != "verdict" || ev.Category == "" {
			t.Fatalf("non-verdict event before the summary: %+v", ev)
		}
	}
	fin := evs[4]
	if fin.Type != "summary" || fin.Summary == nil || fin.Summary.Completed != 4 {
		t.Fatalf("terminal event is not the summary: %+v", fin)
	}
}

// Unresolvable specimens fail their own cell, not the sweep: the
// campaign still reaches "done" with the bad cells tallied as errors.
func TestMixedManifestRecordsPerJobErrors(t *testing.T) {
	s := startServer(t, service.Config{})
	e := NewEngine(s, Options{})
	c, err := e.Launch(Manifest{Specimens: []string{"kasidet", "no-such-specimen"}})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sum := waitCampaign(t, c)
	if sum.State != StateDone {
		t.Fatalf("state = %q, want done", sum.State)
	}
	if sum.Completed != 2 || sum.Errors != 1 {
		t.Fatalf("completed %d errors %d, want 2 and 1", sum.Completed, sum.Errors)
	}
	if sum.Categories["error"] != 1 {
		t.Fatalf("error category tally = %d, want 1 (%v)", sum.Categories["error"], sum.Categories)
	}
}

// Resubmitting a finished manifest is a replay: every verdict comes from
// the cache (or store), no new lab runs.
func TestResubmittedCampaignReplaysFromCache(t *testing.T) {
	s := startServer(t, service.Config{})
	e := NewEngine(s, Options{})
	m := Manifest{Specimens: []string{"kasidet", "locky"}, Seeds: []int64{3}}

	c1, err := e.Launch(m)
	if err != nil {
		t.Fatalf("Launch cold: %v", err)
	}
	waitCampaign(t, c1)
	runs := s.Snapshot().LabRuns

	c2, err := e.Launch(m)
	if err != nil {
		t.Fatalf("Launch warm: %v", err)
	}
	sum := waitCampaign(t, c2)
	if sum.CacheHits != 2 {
		t.Fatalf("warm campaign cache hits = %d, want 2", sum.CacheHits)
	}
	if got := s.Snapshot().LabRuns; got != runs {
		t.Fatalf("warm campaign ran the lab (%d -> %d runs)", runs, got)
	}
}

// countingSubmitter tracks, at each submission, how many previously
// submitted jobs are still unfinished — the quota invariant says this
// never exceeds the campaign's width, because the runner only submits
// while holding a semaphore slot that is released strictly after the
// job's Done channel closes.
type countingSubmitter struct {
	inner Submitter

	mu   sync.Mutex
	jobs []*service.Job
	max  int
}

func (cs *countingSubmitter) Submit(req service.SubmitRequest) (*service.Job, error) {
	job, err := cs.inner.Submit(req)
	if err != nil {
		return job, err
	}
	cs.mu.Lock()
	cs.jobs = append(cs.jobs, job)
	live := 0
	for _, j := range cs.jobs {
		select {
		case <-j.Done():
		default:
			live++
		}
	}
	if live > cs.max {
		cs.max = live
	}
	cs.mu.Unlock()
	return job, nil
}

func (cs *countingSubmitter) maxInflight() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.max
}

// The quota is a hard bound on campaign fan-out: with quota 2 the
// service never holds more than 2 of the campaign's jobs, regardless of
// worker count or queue depth.
func TestQuotaBoundsCampaignInflight(t *testing.T) {
	s := startServer(t, service.Config{Workers: 4, QueueDepth: 32})
	cs := &countingSubmitter{inner: s}
	e := NewEngine(cs, Options{})
	c, err := e.Launch(Manifest{
		Specimens: []string{"kasidet"},
		Seeds:     []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Quota:     2,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sum := waitCampaign(t, c)
	if sum.Completed != 8 {
		t.Fatalf("completed %d, want 8", sum.Completed)
	}
	if got := cs.maxInflight(); got > 2 {
		t.Fatalf("max in-flight campaign jobs = %d, quota was 2", got)
	}
}

// flakySubmitter rejects the first n submissions with ErrQueueFull, then
// delegates — the runner must absorb transient backpressure.
type flakySubmitter struct {
	inner Submitter

	mu        sync.Mutex
	rejects   int
	rejected  int
	drainFrom int // after this many successes, everything is ErrDraining (0 = never)
	accepted  int
}

func (fs *flakySubmitter) Submit(req service.SubmitRequest) (*service.Job, error) {
	fs.mu.Lock()
	if fs.rejected < fs.rejects {
		fs.rejected++
		fs.mu.Unlock()
		return nil, service.ErrQueueFull
	}
	if fs.drainFrom > 0 && fs.accepted >= fs.drainFrom {
		fs.mu.Unlock()
		return nil, service.ErrDraining
	}
	fs.accepted++
	fs.mu.Unlock()
	return fs.inner.Submit(req)
}

func TestRunnerRetriesQueueFull(t *testing.T) {
	s := startServer(t, service.Config{})
	fs := &flakySubmitter{inner: s, rejects: 3}
	e := NewEngine(fs, Options{QueueRetry: time.Millisecond})
	c, err := e.Launch(Manifest{Specimens: []string{"kasidet", "locky"}})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sum := waitCampaign(t, c)
	if sum.State != StateDone || sum.Completed != 2 {
		t.Fatalf("campaign did not recover from queue-full: %+v", sum)
	}
}

// A draining service aborts the remainder of the sweep: jobs already
// accepted are tallied, the rest are never submitted, and the terminal
// state says so.
func TestDrainingServiceAbortsCampaign(t *testing.T) {
	s := startServer(t, service.Config{})
	fs := &flakySubmitter{inner: s, drainFrom: 2}
	e := NewEngine(fs, Options{})
	c, err := e.Launch(Manifest{
		Specimens: []string{"kasidet"},
		Seeds:     []int64{1, 2, 3, 4, 5},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sum := waitCampaign(t, c)
	if sum.State != StateAborted {
		t.Fatalf("state = %q, want aborted", sum.State)
	}
	if sum.Completed != 2 {
		t.Fatalf("completed %d, want the 2 accepted before the drain", sum.Completed)
	}
}

// readSSE consumes an event stream until EOF, decoding each frame and
// checking the id: line matches the payload's seq.
func readSSE(t *testing.T, body *bufio.Scanner) []Event {
	t.Helper()
	var (
		evs  []Event
		id   string
		typ  string
		data string
	)
	flush := func() {
		if data == "" {
			return
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("decoding SSE data %q: %v", data, err)
		}
		if id != fmt.Sprint(ev.Seq) {
			t.Fatalf("SSE id %q does not match payload seq %d", id, ev.Seq)
		}
		if typ != ev.Type {
			t.Fatalf("SSE event %q does not match payload type %q", typ, ev.Type)
		}
		evs = append(evs, ev)
		id, typ, data = "", "", ""
	}
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	flush()
	return evs
}

func campaignTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	s := startServer(t, service.Config{})
	e := NewEngine(s, Options{})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	e.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, e
}

// The full HTTP surface: launch a sweep, stream its events live to the
// terminal summary, then confirm the snapshot endpoint agrees.
func TestHTTPLaunchStreamSnapshot(t *testing.T) {
	ts, _ := campaignTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json",
		strings.NewReader(`{"specimens":["kasidet","locky"],"seeds":[1,2]}`))
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	var launched launchResponse
	if err := json.NewDecoder(resp.Body).Decode(&launched); err != nil {
		t.Fatalf("decoding launch response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || launched.Total != 4 {
		t.Fatalf("launch: status %d total %d, want 201 and 4", resp.StatusCode, launched.Total)
	}

	// Stream live: the handler holds the connection until the terminal
	// summary, then closes.
	stream, err := http.Get(ts.URL + launched.Events)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	evs := readSSE(t, bufio.NewScanner(stream.Body))
	if len(evs) != 5 {
		t.Fatalf("streamed %d events, want 4 verdicts + 1 summary", len(evs))
	}
	fin := evs[len(evs)-1]
	if fin.Type != "summary" || fin.Summary == nil || fin.Summary.State != StateDone {
		t.Fatalf("stream did not end with a done summary: %+v", fin)
	}

	snap, err := http.Get(ts.URL + launched.Result)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer snap.Body.Close()
	var sum Summary
	if err := json.NewDecoder(snap.Body).Decode(&sum); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if sum.State != StateDone || sum.Completed != 4 {
		t.Fatalf("snapshot disagrees with stream: %+v", sum)
	}

	// List includes the campaign.
	list, err := http.Get(ts.URL + "/v1/campaign")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	defer list.Body.Close()
	var sums []Summary
	if err := json.NewDecoder(list.Body).Decode(&sums); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(sums) != 1 || sums[0].ID != launched.ID {
		t.Fatalf("list = %+v, want the launched campaign", sums)
	}
}

// Last-Event-ID resume: a reconnecting client supplies the last id it
// saw and receives exactly the rest of the stream, nothing twice.
func TestSSEResumeWithLastEventID(t *testing.T) {
	ts, e := campaignTestServer(t)
	c, err := e.Launch(Manifest{Specimens: []string{"kasidet", "locky", "wannacry"}})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	waitCampaign(t, c)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaign/"+c.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer resp.Body.Close()
	evs := readSSE(t, bufio.NewScanner(resp.Body))
	// 3 verdicts + summary = seqs 1..4; resuming after 2 yields 3 and 4.
	if len(evs) != 2 || evs[0].Seq != 3 || evs[1].Type != "summary" {
		t.Fatalf("resume after 2 returned %+v, want seqs 3..4", evs)
	}

	// The ?after= query form works for curl-style clients.
	resp2, err := http.Get(ts.URL + "/v1/campaign/" + c.ID + "/events?after=3")
	if err != nil {
		t.Fatalf("resume via query: %v", err)
	}
	defer resp2.Body.Close()
	evs = readSSE(t, bufio.NewScanner(resp2.Body))
	if len(evs) != 1 || evs[0].Type != "summary" {
		t.Fatalf("query resume returned %+v, want just the summary", evs)
	}
}

// A client resuming a finished campaign at or past its summary has
// nothing left to read. The stream answers 204 No Content at once —
// the SSE signal that stops EventSource reconnecting — rather than
// holding the connection open for events that will never come.
func TestSSEResumeFinishedCampaignEnds(t *testing.T) {
	ts, e := campaignTestServer(t)
	c, err := e.Launch(Manifest{Specimens: []string{"kasidet", "locky"}})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	waitCampaign(t, c)
	evs, _ := c.eventsSince(0)
	summarySeq := evs[len(evs)-1].Seq
	if evs[len(evs)-1].Type != "summary" {
		t.Fatalf("last event is %q, want the summary", evs[len(evs)-1].Type)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	for _, tc := range []struct {
		name, lastEventID, query string
	}{
		{"Last-Event-ID=summary", fmt.Sprint(summarySeq), ""},
		{"after=summary", "", fmt.Sprintf("?after=%d", summarySeq)},
		{"after>summary", "", fmt.Sprintf("?after=%d", summarySeq+10)},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaign/"+c.ID+"/events"+tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.lastEventID != "" {
			req.Header.Set("Last-Event-ID", tc.lastEventID)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading body: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusNoContent || len(body) != 0 {
			t.Fatalf("%s: status %d with %d body bytes, want an empty 204", tc.name, resp.StatusCode, len(body))
		}
	}
}

// A client resuming from before the ring's oldest retained event gets a
// snapshot event carrying the aggregate, then the live tail — lossy in
// events, lossless in tallies.
func TestSSEResumeBeyondRingGetsSnapshot(t *testing.T) {
	e := NewEngine(nil, Options{})
	jobs := []jobSpec{{Specimen: "synthetic", Seed: 1}}
	c := newCampaign("c00000001", Manifest{Specimens: []string{"synthetic"}}, jobs, eventRing)
	e.mu.Lock()
	e.campaigns[c.ID] = c
	e.order = append(e.order, c.ID)
	e.mu.Unlock()
	// Overflow the ring so seq 1 is long gone.
	for i := 0; i < eventRing+100; i++ {
		c.recordVerdict(jobs[0], "deactivated", true, "")
	}
	c.Finish(StateDone)

	mux := http.NewServeMux()
	e.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/campaign/" + c.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	evs := readSSE(t, bufio.NewScanner(resp.Body))
	if len(evs) == 0 || evs[0].Type != "snapshot" || evs[0].Summary == nil {
		t.Fatalf("stream did not open with a gap snapshot: %+v", evs[:1])
	}
	if evs[len(evs)-1].Type != "summary" {
		t.Fatalf("stream did not end with the summary")
	}
	// Snapshot + retained ring: dense ids from the snapshot on.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap after the snapshot: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// Unknown campaigns and malformed manifests are client errors.
func TestHTTPClientErrors(t *testing.T) {
	ts, _ := campaignTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/campaign/c99999999")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/campaign/c99999999/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign events: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(`{"specimens":[]}`))
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty manifest: status %d, want 400", resp.StatusCode)
	}
}
