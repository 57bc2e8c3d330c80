package trace

import (
	"sync"
	"time"
)

// Recorder accumulates kernel events for one machine execution. It is safe
// for concurrent use, though the deterministic scheduler drives it from a
// single goroutine in practice.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// tap, when non-nil, observes every event synchronously as it is
	// recorded — the real-time deterrence tier's live view of the trace
	// (post-run consumers keep using Events/Filter). The tap runs under
	// the recorder's mutex and must not call back into the recorder.
	tap func(Event)
}

// recorderPool recycles recorders — and, more importantly, their event
// backing arrays — across runs. A one-minute observation window records
// thousands of events; reusing the array makes the steady-state Record
// path allocation-free.
var recorderPool = sync.Pool{New: func() any { return new(Recorder) }}

// NewRecorder returns an empty trace recorder drawn from the package pool.
// Callers that finish with a recorder may hand it back with Release; those
// that never do simply leave it to the garbage collector.
func NewRecorder() *Recorder {
	return recorderPool.Get().(*Recorder)
}

// Release clears the recorder and returns it to the package pool. The
// caller must not touch the recorder afterwards — slices previously
// obtained from Events, Filter, or ByKind remain valid (they are copies),
// but the recorder itself will be reused by a future NewRecorder call.
func (r *Recorder) Release() {
	r.mu.Lock()
	clear(r.events) // drop string references so pooled capacity pins nothing
	r.events = r.events[:0]
	r.tap = nil // pooled reuse must never inherit a previous run's observer
	r.mu.Unlock()
	recorderPool.Put(r)
}

// Tap registers fn as the live per-event observer, replacing any previous
// tap (nil uninstalls). Record invokes the tap synchronously after
// appending, so a streaming detector sees events in exactly recorded
// order, at the virtual time they happen — not after the run. The tap is
// called under the recorder's mutex: it must not call back into the
// recorder (read the event it was handed instead).
func (r *Recorder) Tap(fn func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tap = fn
}

// Record appends an event to the trace.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	if r.tap != nil {
		r.tap(e)
	}
}

// Events returns a copy of all recorded events in order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Clone returns an independent recorder holding a copy of the events
// recorded so far. Used by winsim's snapshot subsystem: every machine
// cloned from a snapshot must own its own recorder, so concurrent cloned
// runs can never interleave trace events. The tap is deliberately not
// copied: a clone is a different run, and its observer (if any) must be
// installed explicitly.
func (r *Recorder) Clone() *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	nr := NewRecorder()
	if len(r.events) > 0 {
		nr.events = append(nr.events, r.events...)
	}
	return nr
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}

// each calls fn, under the recorder's lock, on every recorded event
// matching pred, in order. It is the one loop over the event log: Filter
// copies through it and Summarize reads through it in place.
func (r *Recorder) each(pred func(Event) bool, fn func(*Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.events {
		if pred(r.events[i]) {
			fn(&r.events[i])
		}
	}
}

// Filter returns the recorded events matching pred, in order.
func (r *Recorder) Filter(pred func(Event) bool) []Event {
	var out []Event
	r.each(pred, func(e *Event) { out = append(out, *e) })
	return out
}

// Summarize condenses the recorded events matching pred, in order. It
// equals Summarize(r.Filter(pred)) without copying the matching events out
// of the log.
func (r *Recorder) Summarize(pred func(Event) bool) Summary {
	s := newSummary()
	r.each(pred, s.add)
	return s
}

// ByKind returns the recorded events of the given kind.
func (r *Recorder) ByKind(k Kind) []Event {
	return r.Filter(func(e Event) bool { return e.Kind == k })
}

// ByPID returns the recorded events attributed to the given process.
func (r *Recorder) ByPID(pid int) []Event {
	return r.Filter(func(e Event) bool { return e.PID == pid })
}

// Since returns the events recorded at or after the given virtual time.
func (r *Recorder) Since(t time.Duration) []Event {
	return r.Filter(func(e Event) bool { return e.Time >= t })
}
