// Package front is scarecrow's scale-out tier: one HTTP front that
// shards verdict traffic across N scarecrowd backends.
//
// The front owns no verdicts. It consistent-hashes each request's
// canonical verdict key (service.RouteKey) onto a backend and reverse-
// proxies /v1/submit, /v1/verdict, and /v1/result there, so every
// cell's cache entry and WAL record lives on exactly one machine and
// the backends' determinism guarantees — byte-identical replay, exact
// coalescing — survive the hop. Campaign manifests fan out as
// per-backend Cells sub-campaigns (each backend receives only the
// cells its shard owns) and the backends' SSE streams merge into one
// front-level stream with its own monotonic sequence and Last-Event-ID
// resume. Backends are health-checked and marked degraded rather than
// failing the whole front; a degraded backend parks only the keys it
// owns. Sub-campaigns are tagged, and backends checkpoint campaign
// progress into their WAL, so a backend killed mid-sweep resumes its
// share on restart and the front's follower re-finds it by tag.
package front

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Options configures a Front.
type Options struct {
	// Backends lists the scarecrowd base URLs (http://host:port). Order
	// defines shard indices: every front replica must use the same list
	// in the same order to route identically.
	Backends []string
	// Vnodes is the ring points per backend (default 64).
	Vnodes int
	// HealthInterval paces the background backend health checks
	// (default 2s).
	HealthInterval time.Duration
	// FrontID namespaces the sub-campaign tags this front creates
	// (default "front"). Give concurrent fronts distinct IDs so their
	// backend-side checkpoints cannot collide.
	FrontID string
	// MaxJobs caps one front campaign's expanded cell count (default
	// 16384, matching the campaign engine).
	MaxJobs int
	// EventRing bounds the merged per-campaign event memory (default:
	// the campaign package's ring size).
	EventRing int
	// Client issues all backend requests. Nil means a default client
	// with no overall timeout (SSE streams are long-lived); individual
	// control requests bound themselves with contexts.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Vnodes <= 0 {
		o.Vnodes = defaultVnodes
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.FrontID == "" {
		o.FrontID = "front"
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16384
	}
	return o
}

// backend is one scarecrowd shard as the front sees it.
type backend struct {
	idx  int
	base string // base URL, no trailing slash

	mu      sync.Mutex
	healthy bool
	lastErr string
	checked time.Time
}

// setHealth records one health observation.
func (b *backend) setHealth(healthy bool, errMsg string, at time.Time) {
	b.mu.Lock()
	b.healthy = healthy
	b.lastErr = errMsg
	b.checked = at
	b.mu.Unlock()
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// backendStatus is one backend's row in /statusz.
type backendStatus struct {
	Index   int    `json:"index"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

func (b *backend) status() backendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return backendStatus{Index: b.idx, URL: b.base, Healthy: b.healthy, Error: b.lastErr}
}

// Front is the shard router. Create with New, serve Handler, Start the
// health loop, Close on shutdown.
type Front struct {
	opts     Options
	ring     *ring
	backends []*backend
	client   *http.Client
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	mu        sync.Mutex
	nextID    uint64
	campaigns map[string]*frontCampaign
	order     []string
}

// New builds a front over the configured backends. Backends start
// healthy (optimistically) and the first health sweep corrects that
// within one interval; Start must be called for the sweeps to run.
func New(opts Options) (*Front, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("front: no backends configured")
	}
	opts = opts.withDefaults()
	f := &Front{
		opts:      opts,
		ring:      newRing(len(opts.Backends), opts.Vnodes),
		client:    opts.Client,
		campaigns: make(map[string]*frontCampaign),
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i, raw := range opts.Backends {
		base := strings.TrimRight(raw, "/")
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			return nil, fmt.Errorf("front: backend %d %q is not an http(s) URL", i, raw)
		}
		b := &backend{idx: i, base: base}
		b.setHealth(true, "", time.Time{})
		f.backends = append(f.backends, b)
	}
	return f, nil
}

// Start launches the background health checker.
func (f *Front) Start() {
	f.wg.Add(1)
	go f.healthLoop()
}

// Close stops the health loop and aborts campaign followers. In-flight
// proxied requests are not interrupted.
func (f *Front) Close() {
	f.cancel()
	f.wg.Wait()
}

func (f *Front) healthLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.HealthInterval)
	defer t.Stop()
	f.sweepHealth()
	for {
		select {
		case <-t.C:
			f.sweepHealth()
		case <-f.ctx.Done():
			return
		}
	}
}

func (f *Front) sweepHealth() {
	for _, b := range f.backends {
		f.checkBackend(b)
	}
}

// checkBackend probes one backend's /healthz. Anything but a 200 —
// refused connection, drain's 503 — marks it degraded; the shard it
// owns parks while the rest of the front keeps serving.
func (f *Front) checkBackend(b *backend) bool {
	ctx, cancel := context.WithTimeout(f.ctx, f.opts.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		b.setHealth(false, err.Error(), time.Now())
		return false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		b.setHealth(false, err.Error(), time.Now())
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.setHealth(false, fmt.Sprintf("healthz returned %d", resp.StatusCode), time.Now())
		return false
	}
	b.setHealth(true, "", time.Now())
	return true
}

// waitHealthy polls a backend's /healthz directly (not waiting for the
// background sweep) until it answers 200 or the front closes. Campaign
// followers park here while their backend is down or restarting.
func (f *Front) waitHealthy(b *backend) bool {
	delay := 50 * time.Millisecond
	for {
		if f.checkBackend(b) {
			return true
		}
		select {
		case <-time.After(delay):
		case <-f.ctx.Done():
			return false
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// Statusz is the front's /statusz document.
type Statusz struct {
	FrontID   string          `json:"front_id"`
	Backends  []backendStatus `json:"backends"`
	Healthy   int             `json:"healthy_backends"`
	Campaigns int             `json:"campaigns"`
}

// Status snapshots the front's view of its backends and campaigns.
func (f *Front) Status() Statusz {
	st := Statusz{FrontID: f.opts.FrontID}
	for _, b := range f.backends {
		s := b.status()
		st.Backends = append(st.Backends, s)
		if s.Healthy {
			st.Healthy++
		}
	}
	f.mu.Lock()
	st.Campaigns = len(f.campaigns)
	f.mu.Unlock()
	return st
}
