package campaign

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"scarecrow/internal/service"
)

// eventRing is the default bound on each campaign's event memory. Large
// enough that any live SSE consumer (or a reconnect within the same
// sweep) resumes losslessly; a consumer further behind than this gets a
// snapshot event and continues from there.
const eventRing = 4096

// Log is one campaign's event stream: the verdict tallies, a dense
// sequence of events over a bounded ring, subscriber wake-ups, the
// terminal summary, and the SSE handler that serves it all with
// Last-Event-ID resume and snapshot-on-gap. A backend Campaign and a
// shard front's merged campaign are both a Log plus their own
// bookkeeping, so the two streams keep one contract.
//
// Everything above mu is immutable after construction; everything below
// it is guarded.
type Log struct {
	// ID addresses the campaign in /v1/campaign/{id}.
	ID string

	tag         string
	total       int
	resumedFrom int // checkpointed watermark at resume (0 = fresh)
	started     time.Time
	done        chan struct{}
	ring        int // event ring capacity

	mu         sync.Mutex
	state      string
	completed  int
	errors     int
	cacheHits  int
	categories map[string]int
	wall       time.Duration
	ckptErrors int
	events     []Event // ring: events[0].Seq is the oldest retained
	nextSeq    uint64
	subs       map[chan struct{}]bool
}

// NewLog starts a running log for a campaign of total cells. ring bounds
// the retained events (<= 0 means the package default, 4096).
func NewLog(id, tag string, total, ring int) *Log {
	if ring <= 0 {
		ring = eventRing
	}
	return &Log{
		ID:         id,
		tag:        tag,
		total:      total,
		started:    time.Now(),
		done:       make(chan struct{}),
		ring:       ring,
		state:      StateRunning,
		categories: make(map[string]int),
		subs:       make(map[chan struct{}]bool),
	}
}

// Done returns a channel closed when the log reaches a terminal state.
func (l *Log) Done() <-chan struct{} { return l.done }

// Total returns the campaign's cell count.
func (l *Log) Total() int { return l.total }

// Snapshot aggregates the campaign's current state.
func (l *Log) Snapshot() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.summaryLocked()
}

func (l *Log) summaryLocked() Summary {
	wall := l.wall
	if l.state == StateRunning {
		wall = time.Since(l.started)
	}
	cats := make(map[string]int, len(l.categories))
	for k, v := range l.categories {
		cats[k] = v
	}
	s := Summary{
		ID:               l.ID,
		Tag:              l.tag,
		State:            l.state,
		Total:            l.total,
		Completed:        l.completed,
		Errors:           l.errors,
		CacheHits:        l.cacheHits,
		Categories:       cats,
		WallS:            wall.Seconds(),
		ResumedFrom:      l.resumedFrom,
		CheckpointErrors: l.ckptErrors,
	}
	if wall > 0 {
		s.VerdictsPerS = float64(l.completed) / wall.Seconds()
	}
	return s
}

// progress returns whether the log is still running and how many cells
// it has recorded.
func (l *Log) progress() (running bool, completed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state == StateRunning, l.completed
}

// noteCheckpointError counts one failed checkpoint write.
func (l *Log) noteCheckpointError() {
	l.mu.Lock()
	l.ckptErrors++
	l.mu.Unlock()
}

// Record tallies one completed cell and appends its verdict event. Only
// the cell and outcome fields of ev are kept; the log assigns the
// sequence number and progress counters. It returns the completed count
// including this cell.
func (l *Log) Record(ev Event) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.completed++
	l.categories[ev.Category]++
	if ev.CacheHit {
		l.cacheHits++
	}
	if ev.Error != "" {
		l.errors++
	}
	l.appendLocked(Event{
		Type:     "verdict",
		Specimen: ev.Specimen,
		Profile:  ev.Profile,
		Seed:     ev.Seed,
		Category: ev.Category,
		CacheHit: ev.CacheHit,
		Error:    ev.Error,
	})
	return l.completed
}

// Finish moves a running log to a terminal state, appends the summary
// event — always the stream's last event — and closes Done. It is a
// no-op on a log that has already finished.
func (l *Log) Finish(state string) {
	l.mu.Lock()
	if l.state != StateRunning {
		l.mu.Unlock()
		return
	}
	l.state = state
	l.wall = time.Since(l.started)
	summary := l.summaryLocked()
	l.appendLocked(Event{Type: "summary", Summary: &summary})
	l.mu.Unlock()
	close(l.done)
}

// appendLocked assigns the next sequence number, trims the ring, and
// wakes subscribers. Caller holds l.mu.
func (l *Log) appendLocked(ev Event) {
	l.nextSeq++
	ev.Seq = l.nextSeq
	ev.Completed = l.completed
	ev.Total = l.total
	l.events = append(l.events, ev)
	if len(l.events) > l.ring {
		l.events = l.events[len(l.events)-l.ring:]
	}
	for ch := range l.subs { //maporder:ok — wakeup poke, every subscriber gets one, order is moot
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// eventsSince returns retained events with Seq > after, plus the oldest
// retained sequence number (0 when the ring is empty) so callers can
// detect a resume gap.
func (l *Log) eventsSince(after uint64) (evs []Event, oldest uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) > 0 {
		oldest = l.events[0].Seq
	}
	for _, ev := range l.events {
		if ev.Seq > after {
			evs = append(evs, ev)
		}
	}
	return evs, oldest
}

// exhausted reports whether the log is terminal and has no event after
// seq — a resume with nothing left to send.
func (l *Log) exhausted(after uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state != StateRunning && after >= l.nextSeq
}

// subscribe registers a wake channel signalled on every append.
func (l *Log) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	l.mu.Lock()
	l.subs[ch] = true
	l.mu.Unlock()
	return ch
}

func (l *Log) unsubscribe(ch chan struct{}) {
	l.mu.Lock()
	delete(l.subs, ch)
	l.mu.Unlock()
}

// ServeEvents streams the log as Server-Sent Events: one verdict event
// per completed cell, a terminal summary event, then EOF. Resume is
// lossless while the requested position is still in the event ring; a
// client further behind gets a snapshot event carrying the current
// aggregate and continues live from there. A resume on a finished log
// that has nothing after the requested position answers 204 No Content,
// which tells an EventSource client to stop reconnecting.
func (l *Log) ServeEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "response writer cannot stream"})
		return
	}
	last := resumeSeq(r)
	if l.exhausted(last) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	sub := l.subscribe()
	defer l.unsubscribe(sub)
	for {
		evs, oldest := l.eventsSince(last)
		if oldest > 0 && last+1 < oldest {
			// The ring dropped events between the resume position and the
			// oldest retained one: re-sync with an aggregate snapshot so
			// the client's tallies stay correct, then continue live.
			snap := l.Snapshot()
			gap := Event{
				Seq:       oldest - 1,
				Type:      "snapshot",
				Completed: snap.Completed,
				Total:     snap.Total,
				Summary:   &snap,
			}
			if err := writeEvent(w, gap); err != nil {
				return
			}
			last = gap.Seq
		}
		terminal := false
		for _, ev := range evs {
			if err := writeEvent(w, ev); err != nil {
				return
			}
			last = ev.Seq
			if ev.Type == "summary" {
				terminal = true
			}
		}
		fl.Flush()
		if terminal {
			return
		}
		select {
		case <-sub:
		case <-r.Context().Done():
			return
		}
	}
}

// resumeSeq reads the client's resume position: the standard
// Last-Event-ID header (set automatically by EventSource reconnects) or
// an explicit ?after= for plain HTTP clients. Zero means "from the
// start".
func resumeSeq(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("after"); q != "" {
		raw = q
	}
	if raw == "" {
		return 0
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// writeEvent renders one SSE frame. The JSON payload is a single line,
// so one data: field suffices.
func writeEvent(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return service.WriteSSE(w, ev.Seq, ev.Type, data)
}
