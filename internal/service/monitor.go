package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/deter"
	"scarecrow/internal/winsim"
)

// The streaming deterrence endpoint: POST /v1/monitor runs the specimen
// ONCE on an unprotected machine under the real-time deterrence tier
// (internal/deter) and streams Server-Sent Events as the run unfolds —
// one `detection` event per signal the online detector fires, then a
// final `verdict` event carrying the full analysis.MonitorDoc.
//
// Monitored runs deliberately bypass the verdict cache, the coalescer,
// and the durable store: the stream's value is watching the detection
// happen, and a replayed byte-identical stream would misrepresent a
// cached result as a live run. The response advertises the bypass via
// X-Scarecrow-Cache: bypass. Determinism still holds — the same
// (specimen, profile, seed, action) streams the same events — it is the
// serving layers that step aside, not the simulation.

// MonitorRequest is the body of POST /v1/monitor: a normal submission
// plus the enforcement action.
type MonitorRequest struct {
	SubmitRequest
	// Action is the enforcement applied when the detector flags the
	// payload: kill (default), throttle, isolate, or observe.
	Action string `json:"action,omitempty"`
}

// monitorLabs is the monitored-run lab pool. Monitor handlers run on
// request goroutines (not the worker pool), so they check labs out of
// this pool to keep the single-owner lab contract: a lab is used by one
// goroutine at a time and returned when the run completes, preserving
// its template snapshot across runs.
type monitorLabs struct {
	mu   sync.Mutex
	labs map[winsim.ProfileName][]*analysis.Lab
}

func (p *monitorLabs) get(profile winsim.ProfileName) *analysis.Lab {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.labs == nil {
		p.labs = make(map[winsim.ProfileName][]*analysis.Lab)
	}
	if pool := p.labs[profile]; len(pool) > 0 {
		lab := pool[len(pool)-1]
		p.labs[profile] = pool[:len(pool)-1]
		return lab
	}
	return &analysis.Lab{
		Profile: profile,
		Config:  core.RecommendedConfig(string(profile)),
	}
}

func (p *monitorLabs) put(lab *analysis.Lab) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.labs[lab.Profile] = append(p.labs[lab.Profile], lab)
}

// handleMonitor serves POST /v1/monitor. Concurrency is bounded by the
// monitor semaphore (worker-count wide) so streaming runs cannot
// outnumber the verdict workers; a saturated tier answers 429 +
// Retry-After just like a full queue.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req MonitorRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	action, err := deter.ParseAction(req.Action)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	res, err := s.resolve(req.SubmitRequest)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: ErrDraining.Error()})
		return
	}
	select {
	case s.monitorSem <- struct{}{}:
		defer func() { <-s.monitorSem }()
	default:
		s.mu.Lock()
		s.monitorRejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(req.SubmitRequest)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "monitor capacity exhausted"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported by this connection"})
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Scarecrow-Cache", "bypass")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	lab := s.monitorLabs.get(res.profile)
	defer s.monitorLabs.put(lab)

	// The simulation runs on this goroutine; OnDetection fires inside it,
	// so frames stream in event order with no buffering or races. A
	// disconnected client turns writes into errors we ignore — the run
	// completes regardless, exactly like the synchronous verdict path.
	var frames uint64
	result := lab.RunMonitoredSeeded(res.specimen, res.seed, analysis.MonitorOptions{
		Action: action,
		OnDetection: func(d deter.Detection) {
			frames++
			if b, err := json.Marshal(d); err == nil {
				WriteSSE(w, frames, "detection", b)
				flusher.Flush()
			}
		},
	})

	doc, err := result.Doc().Marshal()
	if err != nil {
		doc = []byte(fmt.Sprintf(`{"specimen":%q,"category":"error","error":%q}`, res.specimen.ID, err.Error()))
	}
	frames++
	WriteSSE(w, frames, "verdict", doc)
	flusher.Flush()

	s.mu.Lock()
	s.monitorRuns++
	if result.Outcome.Deterred {
		s.monitorDeterred++
	}
	if result.Err != nil {
		s.verdictErrors++
	}
	s.virtual += result.VirtualTime
	s.mu.Unlock()
}
