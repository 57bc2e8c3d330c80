package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// launchResponse is the body of POST /v1/campaign.
type launchResponse struct {
	ID    string `json:"id"`
	Total int    `json:"total"`
	// Result and Events point at the snapshot and stream endpoints.
	Result string `json:"result"`
	Events string `json:"events"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Register mounts the campaign API on a mux, alongside (not inside) the
// verdict service's handler:
//
//	POST /v1/campaign             — launch a batch sweep from a manifest
//	GET  /v1/campaign             — list campaign summaries
//	GET  /v1/campaign/{id}        — one campaign's summary snapshot
//	GET  /v1/campaign/{id}/events — SSE verdict stream with resume
func (e *Engine) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/campaign", e.handleLaunch)
	mux.HandleFunc("GET /v1/campaign", e.handleList)
	mux.HandleFunc("GET /v1/campaign/{id}", e.handleSnapshot)
	mux.HandleFunc("GET /v1/campaign/{id}/events", e.handleEvents)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (e *Engine) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var m Manifest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding manifest: %v", err)})
		return
	}
	c, err := e.Launch(m)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, launchResponse{
		ID:     c.ID,
		Total:  c.Total(),
		Result: "/v1/campaign/" + c.ID,
		Events: "/v1/campaign/" + c.ID + "/events",
	})
}

func (e *Engine) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.List())
}

func (e *Engine) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	c, ok := e.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown campaign %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, c.Snapshot())
}

// handleEvents streams a campaign's event log (see Log.ServeEvents).
func (e *Engine) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := e.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown campaign %q", r.PathValue("id"))})
		return
	}
	c.ServeEvents(w, r)
}
