package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code around each call into a
// layer's public API; the program itself carries no tracing. A nil
// *tracer records nothing, which is how the untraced run measures.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started. On a nil tracer it only keeps
// the start time, so callers time the call the same way traced or not.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span under parent (0 for a root) for request req.
func (t *tracer) begin(layer, name string, parent, req int64) openSpan {
	o := openSpan{t: t, start: time.Now()}
	if t != nil {
		o.s = span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Layer: layer}
	}
	return o
}

// id is the span's identifier, the parent of spans it causes (0 when
// the tracer is off).
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and returns its duration.
func (o openSpan) end() time.Duration {
	now := time.Now()
	if o.t != nil {
		o.s.Start, o.s.End = int64(o.start.Sub(o.t.t0)), int64(now.Sub(o.t.t0))
		o.t.record(o.s)
	}
	return now.Sub(o.start)
}

// record adds a span whose times the caller measured itself.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}
