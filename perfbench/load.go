package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/campaign"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
)

// loadStats is what a measured phase observed. Rounds merge into one.
type loadStats struct {
	attempted int
	completed int // verdicts (or campaign cells) delivered without failure
	wall      time.Duration
	lat       []float64 // ms per request or cell; +Inf for a failure
	served    []served

	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	heapPeak uint64
	svc      service.Stats // deltas summed over backends
	sto      store.Stats   // deltas summed over backends

	// Per round: completed/wall, how far the peak RSS up to the fixed
	// count rose above the RSS before the round's set-up, and the median
	// latency. rssBase is the RSS before the first set-up: the
	// benchmark's own bookkeeping grows from round to round, so each
	// round's rise is taken against its own base.
	rates, rssMB, p50s []float64
	rssBase            float64

	// counts are per-layer counters summed over rounds; series are
	// per-call samples pooled over rounds.
	counts   map[string]float64
	series   map[string][]float64
	problems []string
}

func newLoadStats() *loadStats {
	return &loadStats{counts: map[string]float64{}, series: map[string][]float64{}}
}

func (ls *loadStats) problem(format string, args ...any) {
	if len(ls.problems) < 10 {
		ls.problems = append(ls.problems, fmt.Sprintf(format, args...))
	}
}

// add folds one round into ls.
func (ls *loadStats) add(r *loadStats) {
	ls.attempted += r.attempted
	ls.completed += r.completed
	ls.wall += r.wall
	ls.lat = append(ls.lat, r.lat...)
	ls.served = append(ls.served, r.served...)
	ls.mallocs += r.mallocs
	ls.gcCycles += r.gcCycles
	ls.gcPause += r.gcPause
	ls.heapPeak = max(ls.heapPeak, r.heapPeak)
	ls.svc.Submitted += r.svc.Submitted
	ls.svc.Coalesced += r.svc.Coalesced
	ls.svc.Rejected += r.svc.Rejected
	ls.svc.LabRuns += r.svc.LabRuns
	ls.svc.CacheHits += r.svc.CacheHits
	ls.svc.StoreHits += r.svc.StoreHits
	ls.sto.Gets += r.sto.Gets
	ls.sto.Hits += r.sto.Hits
	ls.sto.Puts += r.sto.Puts
	ls.sto.Compactions += r.sto.Compactions
	ls.rates = append(ls.rates, ratio(float64(r.completed), r.wall.Seconds()))
	ls.rssMB = append(ls.rssMB, r.rssMB...)
	if v, ok := percentile(r.lat, 0.5); ok {
		ls.p50s = append(ls.p50s, v)
	}
	for k, v := range r.counts {
		ls.counts[k] += v
	}
	for k, v := range r.series {
		ls.series[k] = append(ls.series[k], v...)
	}
	for _, p := range r.problems {
		ls.problem("%s", p)
	}
}

// sample is one request's outcome.
type sample struct {
	i   int
	lat float64 // ms; +Inf when failed
	s   served
}

// closedLoop runs `clients` goroutines that each send request i (drawn
// from a shared counter starting at from), wait for it, and send the
// next, until d has elapsed. Samples come back in request order. The
// phase's peak RSS is frozen when the rssAt-th request completes.
func closedLoop(p *phase, clients int, d time.Duration, from, rssAt int, do func(i int) sample) (samples []sample, wall time.Duration) {
	var next, done atomic.Int64
	next.Store(int64(from))
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := do(int(next.Add(1) - 1))
				per[c] = append(per[c], s)
				if done.Add(1) == int64(rssAt) {
					p.freezeRSS()
				}
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, s := range per {
		samples = append(samples, s...)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].i < samples[b].i })
	return samples, wall
}

// rssMB reads the process's current resident set in MiB.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// phase brackets a measured round with the process and rig counters and
// samples the live heap and the resident set every 5 ms. The RSS peak
// stops updating once frozen: memory is compared at a fixed amount of
// work, because the service keeps its last 8,192 jobs (with their
// specimens and verdicts) and memory at the end of a fixed-time round
// would grow with throughput.
type phase struct {
	r      *rig
	ms     runtime.MemStats
	svc    service.Stats
	sto    store.Stats
	heap   atomic.Uint64
	rss    atomic.Uint64 // math.Float64bits of the peak MiB
	frozen atomic.Bool
	stop   chan struct{}
	done   sync.WaitGroup
}

func beginPhase(r *rig) *phase {
	p := &phase{r: r, svc: r.serviceStats(), sto: r.storeStats(), stop: make(chan struct{})}
	runtime.ReadMemStats(&p.ms)
	p.sampleRSS()
	p.done.Add(1)
	go p.sample()
	return p
}

func (p *phase) sample() {
	defer p.done.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > p.heap.Load() {
			p.heap.Store(v)
		}
		p.sampleRSS()
		select {
		case <-t.C:
		case <-p.stop:
			return
		}
	}
}

// sampleRSS raises the recorded peak unless it is frozen.
func (p *phase) sampleRSS() {
	if p.frozen.Load() {
		return
	}
	if v := rssMB(); v > math.Float64frombits(p.rss.Load()) {
		p.rss.Store(math.Float64bits(v))
	}
}

func (p *phase) freezeRSS() {
	p.sampleRSS()
	p.frozen.Store(true)
}

func (p *phase) finish(ls *loadStats) {
	p.freezeRSS()
	close(p.stop)
	p.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ls.mallocs = ms.Mallocs - p.ms.Mallocs
	ls.gcCycles = ms.NumGC - p.ms.NumGC
	ls.gcPause = time.Duration(ms.PauseTotalNs - p.ms.PauseTotalNs)
	ls.heapPeak = p.heap.Load()
	ls.rssMB = []float64{math.Float64frombits(p.rss.Load())}
	svc, sto := p.r.serviceStats(), p.r.storeStats()
	ls.svc = service.Stats{
		Submitted: svc.Submitted - p.svc.Submitted,
		Coalesced: svc.Coalesced - p.svc.Coalesced,
		Rejected:  svc.Rejected - p.svc.Rejected,
		LabRuns:   svc.LabRuns - p.svc.LabRuns,
		CacheHits: svc.CacheHits - p.svc.CacheHits,
		StoreHits: svc.StoreHits - p.svc.StoreHits,
	}
	ls.sto = store.Stats{
		Gets:        sto.Gets - p.sto.Gets,
		Hits:        sto.Hits - p.sto.Hits,
		Puts:        sto.Puts - p.sto.Puts,
		Compactions: sto.Compactions - p.sto.Compactions,
	}
}

func fromSamples(ls *loadStats, samples []sample) {
	for _, s := range samples {
		ls.attempted++
		ls.lat = append(ls.lat, s.lat)
		ls.served = append(ls.served, s.s)
		if !s.s.failed {
			ls.completed++
		}
	}
}

// healthWatch counts backend health flips seen by the front while a
// phase runs.
type healthWatch struct {
	flips atomic.Int64
	stop  chan struct{}
	done  sync.WaitGroup
}

func watchHealth(r *rig) *healthWatch {
	h := &healthWatch{stop: make(chan struct{})}
	if r.front == nil {
		return h
	}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		var last []bool
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			st := r.front.Status()
			for i, b := range st.Backends {
				if last != nil && last[i] != b.Healthy {
					h.flips.Add(1)
				}
			}
			last = last[:0]
			for _, b := range st.Backends {
				last = append(last, b.Healthy)
			}
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *healthWatch) finish() int64 {
	close(h.stop)
	h.done.Wait()
	return h.flips.Load()
}

// corpusLoad is corpus-cold's measured phase: clients call Server.Submit
// and wait on Job.Done in-process, each request a new Figure-4 corpus key.
func corpusLoad(r *rig, gen *corpusGen, clients int, d time.Duration, from int, tr *tracer) *loadStats {
	srv := r.backends[0].srv
	var genMu, timesMu sync.Mutex
	ls := newLoadStats()
	p := beginPhase(r)
	samples, wall := closedLoop(p, clients, d, from, corpusRSSAt, func(i int) sample {
		genMu.Lock()
		c := gen.at(i)
		genMu.Unlock()
		req := c.request()
		id := int64(i + 1)
		root := tr.begin("bench", "request", 0, id)
		sp := tr.begin("service", "service.Server.Submit", root.id(), id)
		job, err := srv.Submit(req)
		submit := sp.end()
		if err != nil {
			root.end()
			return sample{i: i, lat: math.Inf(1), s: served{cell: c, failed: true}}
		}
		sp = tr.begin("service", "service.Job.Done", root.id(), id)
		<-job.Done()
		wait := sp.end()
		lat := ms(root.end())
		s := verdictServed(c, job.Verdict())
		if s.failed {
			lat = math.Inf(1)
		}
		if tr != nil {
			timesMu.Lock()
			ls.series["service.submit_us"] = append(ls.series["service.submit_us"], us(submit))
			ls.series["service.wait_ms"] = append(ls.series["service.wait_ms"], ms(wait))
			timesMu.Unlock()
		}
		return sample{i: i, lat: lat, s: s}
	})
	p.finish(ls)
	fromSamples(ls, samples)
	ls.wall = wall
	return ls
}

// post sends a JSON body and returns the status, the full response body
// and the headers.
func post(client *http.Client, url string, body []byte) (int, []byte, http.Header, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

// verdictBody strips the newline /v1/verdict appends to the verdict.
func verdictBody(raw []byte) []byte { return bytes.TrimSuffix(raw, []byte("\n")) }

// ownerIndex parses the owning backend from the front's job header
// ("b<idx>-<backend job id>").
func ownerIndex(h http.Header) (int, bool) {
	id, ok := strings.CutPrefix(h.Get("X-Scarecrow-Job"), "b")
	if !ok {
		return 0, false
	}
	head, _, ok := strings.Cut(id, "-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(head)
	return n, err == nil
}

// fleetLoad is fleet-replay's measured phase: clients POST /v1/verdict
// through the front. Traced, each body is also sent straight to the
// backend that owns it, and the front's share is the difference.
func fleetLoad(r *rig, plan *fleetPlan, bodies map[string][]byte, clients int, d time.Duration, from int, tr *tracer) *loadStats {
	client := newClient()
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	var extra []served
	ls := newLoadStats()
	hw := watchHealth(r)
	p := beginPhase(r)
	samples, wall := closedLoop(p, clients, d, from, fleetRSSAt, func(i int) sample {
		c := plan.at(i)
		body := bodies[c.key()]
		id := int64(i + 1)
		root := tr.begin("bench", "request", 0, id)
		sp := tr.begin("front", "POST /v1/verdict via front", root.id(), id)
		status, raw, hdr, err := post(client, r.fts.URL+"/v1/verdict", body)
		lat := sp.end()
		if err != nil || status != http.StatusOK {
			root.end()
			return sample{i: i, lat: math.Inf(1), s: served{cell: c, failed: true}}
		}
		s := verdictServed(c, verdictBody(raw))
		if tr != nil {
			if idx, ok := ownerIndex(hdr); ok && idx < len(r.backends) {
				sp = tr.begin("service", "POST /v1/verdict direct", root.id(), id)
				dStatus, dRaw, _, dErr := post(client, r.backends[idx].ts.URL+"/v1/verdict", body)
				dLat := sp.end()
				ds := verdictServed(c, verdictBody(dRaw))
				ds.failed = ds.failed || dErr != nil || dStatus != http.StatusOK
				mu.Lock()
				ls.series["front.rtt_ms"] = append(ls.series["front.rtt_ms"], ms(lat))
				ls.series["front.direct_rtt_ms"] = append(ls.series["front.direct_rtt_ms"], ms(dLat))
				ls.series["front.overhead_ms"] = append(ls.series["front.overhead_ms"], ms(lat)-ms(dLat))
				extra = append(extra, ds)
				mu.Unlock()
			}
		}
		root.end()
		if s.failed {
			return sample{i: i, lat: math.Inf(1), s: s}
		}
		return sample{i: i, lat: ms(lat), s: s}
	})
	p.finish(ls)
	fromSamples(ls, samples)
	ls.wall = wall
	ls.counts["front.health_transitions"] = float64(hw.finish())
	ls.served = append(ls.served, extra...)
	return ls
}

// fanoutLoad is campaign-fanout's measured phase: one client launches
// campaigns back to back through the front and follows each merged event
// stream to its summary. A cell's latency runs from the launch request
// to its event. The checks run after the clock stops.
func fanoutLoad(r *rig, plan *fanoutPlan, d time.Duration, round int, tr *tracer) *loadStats {
	client := newClient()
	defer client.CloseIdleConnections()
	ls := newLoadStats()
	hw := watchHealth(r)
	p := beginPhase(r)
	var runs []campaignRun
	cells := 0
	start := time.Now()
	for j := 0; time.Since(start) < d; j++ {
		runs = append(runs, followCampaign(client, r.fts.URL, plan, round, j, tr))
		if cells += plan.size(); cells >= fanoutRSSAt {
			p.freezeRSS()
		}
	}
	ls.wall = time.Since(start)
	p.finish(ls)
	ls.counts["front.health_transitions"] = float64(hw.finish())

	for j, res := range runs {
		want := plan.cells(round, j)
		ls.attempted += len(want)
		pending := make(map[string]cell, len(want))
		for _, c := range want {
			pending[c.key()] = c
		}
		for _, ev := range res.events {
			c := cell{Specimen: ev.ev.Specimen, Profile: ev.ev.Profile, Seed: ev.ev.Seed}
			if _, ok := pending[c.key()]; !ok {
				ls.problem("round %d campaign %d: unexpected or duplicate cell %s", round, j, c.key())
				continue
			}
			delete(pending, c.key())
			failed := ev.ev.Error != "" || ev.ev.Category == analysis.VerdictError.String()
			lat := ev.lat
			if failed {
				lat = math.Inf(1)
			} else {
				ls.completed++
			}
			ls.lat = append(ls.lat, lat)
			ls.served = append(ls.served, served{cell: c, category: ev.ev.Category, failed: failed})
		}
		for _, c := range pending {
			ls.lat = append(ls.lat, math.Inf(1))
			ls.served = append(ls.served, served{cell: c, failed: true})
		}
		if res.err != nil {
			ls.problem("round %d campaign %d: %v", round, j, res.err)
		}
		ls.counts["campaign.snapshot_events"] += float64(res.snapshots)
		ls.series["campaign.makespan_ms"] = append(ls.series["campaign.makespan_ms"], ms(res.makespan))
		if res.firstCell > 0 {
			ls.series["campaign.first_cell_ms"] = append(ls.series["campaign.first_cell_ms"], ms(res.firstCell))
		}
		s := res.summary
		if s == nil {
			ls.problem("round %d campaign %d: stream ended without a summary", round, j)
			continue
		}
		ls.counts["campaign.cache_hits"] += float64(s.CacheHits)
		ls.counts["campaign.cells"] += float64(s.Total)
		if s.State != campaign.StateDone || s.Total != len(want) || s.Completed != len(want) || s.Errors != 0 {
			ls.problem("round %d campaign %d summary: state %s, %d/%d completed (want %d), %d errors", round, j, s.State, s.Completed, s.Total, len(want), s.Errors)
		}
		if want := plan.expectedHits(round, j); s.CacheHits != want {
			ls.problem("round %d campaign %d: %d cache hits, want %d", round, j, s.CacheHits, want)
		}
	}
	for _, b := range r.backends {
		for _, s := range b.eng.List() {
			ls.counts["campaign.checkpoint_errors"] += float64(s.CheckpointErrors)
		}
	}
	return ls
}

type cellEvent struct {
	ev  campaign.Event
	lat float64 // ms since launch
}

type campaignRun struct {
	events    []cellEvent
	summary   *campaign.Summary
	snapshots int
	makespan  time.Duration
	firstCell time.Duration
	err       error
}

// followCampaign launches the round's campaign j and reads its merged
// stream to the summary.
func followCampaign(client *http.Client, base string, plan *fanoutPlan, round, j int, tr *tracer) (res campaignRun) {
	id := int64(round*roundStride + j + 1)
	root := tr.begin("bench", "campaign", 0, id)
	launch := time.Now()
	defer func() { res.makespan = root.end() }()
	m := campaign.Manifest{Specimens: sweepSpecimens(), Profiles: fleetProfiles, Seeds: plan.seeds(round, j)}
	body, err := json.Marshal(m)
	if err != nil {
		res.err = err
		return res
	}
	sp := tr.begin("campaign", "POST /v1/campaign", root.id(), id)
	status, raw, _, err := post(client, base+"/v1/campaign", body)
	sp.end()
	if err != nil || status != http.StatusCreated {
		res.err = fmt.Errorf("launch: status %d, %v: %s", status, err, raw)
		return res
	}
	var launched struct {
		Events string `json:"events"`
	}
	if err := json.Unmarshal(raw, &launched); err != nil {
		res.err = fmt.Errorf("decoding launch response: %w", err)
		return res
	}
	sp = tr.begin("campaign", "first cell event", root.id(), id)
	stream, err := client.Get(base + launched.Events)
	if err != nil {
		res.err = fmt.Errorf("opening event stream: %w", err)
		return res
	}
	defer stream.Body.Close()
	var rest openSpan
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev campaign.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			res.err = fmt.Errorf("decoding event: %w", err)
			return res
		}
		switch ev.Type {
		case "verdict":
			since := time.Since(launch)
			if len(res.events) == 0 {
				res.firstCell = since
				sp.end()
				rest = tr.begin("campaign", "remaining cells to summary", root.id(), id)
			}
			res.events = append(res.events, cellEvent{ev: ev, lat: ms(since)})
		case "snapshot":
			res.snapshots++
		case "summary":
			if len(res.events) > 0 {
				rest.end()
			}
			res.summary = ev.Summary
			return res
		}
	}
	res.err = fmt.Errorf("event stream ended early: %v", sc.Err())
	return res
}
