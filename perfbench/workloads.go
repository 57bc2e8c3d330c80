package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"scarecrow/internal/winsim"
)

// A round's peak RSS stops counting once this many requests (or
// campaign cells) have completed, a point every round passes within its
// first seconds.
const (
	corpusRSSAt = 200
	fleetRSSAt  = 8000
	fanoutRSSAt = 1500
)

// roundStride spaces the rounds' slices of a request stream: round r
// serves requests r·roundStride onward, far more than a round can send,
// so corpus keys stay distinct across rounds.
const roundStride = 1 << 24

// workload is one named traffic mix.
type workload interface {
	kind() rigKind
	// prepare builds the per-backend store directories set-up starts
	// from; it is not timed.
	prepare(env *env) ([]string, error)
	// measure runs measured round `round` against a rig. Each round has
	// its own deterministic slice of the seed's request stream.
	measure(env *env, r *rig, d time.Duration, round int, tr *tracer) *loadStats
}

// env is one run's scratch space and shared state.
type env struct {
	clients int
	tmp     string
	history string
	// served collects verdicts served outside the measured phase
	// (set-up warm-ups, pre-commits); the oracle checks them too.
	served   []served
	problems []string
}

func (e *env) dir(name string) string { return filepath.Join(e.tmp, name) }

// storeDirs copies the fixed history into n fresh store directories.
func (e *env) storeDirs(prefix string, n int) ([]string, error) {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = e.dir(fmt.Sprintf("%s-%d", prefix, i))
		if err := copyDir(e.history, dirs[i]); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "corpus-cold":
		return &corpusCold{gen: newCorpusGen(seed)}, nil
	case "fleet-replay":
		return &fleetReplay{plan: newFleetPlan(seed)}, nil
	case "campaign-fanout":
		return &campaignFanout{plan: newFanoutPlan(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: corpus-cold, fleet-replay, campaign-fanout)", name)
}

// corpusCold: every request a distinct Figure-4 corpus key, so the
// layers that turn a request into a new verdict do the work.
type corpusCold struct{ gen *corpusGen }

func (w *corpusCold) kind() rigKind {
	return rigKind{backends: 1, profiles: []string{string(winsim.ProfileBareMetalSandbox)}}
}

func (w *corpusCold) prepare(env *env) ([]string, error) {
	return env.storeDirs("corpus", w.kind().backends)
}

func (w *corpusCold) measure(env *env, r *rig, d time.Duration, round int, tr *tracer) *loadStats {
	return corpusLoad(r, w.gen, env.clients, d, round*roundStride, tr)
}

// fleetReplay: a skewed pool behind the front, warm in the backends'
// WALs and caches, so routing, HTTP, the cache and store reads do the
// work.
type fleetReplay struct {
	plan   *fleetPlan
	bodies map[string][]byte
}

func (w *fleetReplay) kind() rigKind {
	return rigKind{backends: 2, http: true, profiles: fleetProfiles}
}

// prepare commits half of each pair's seeds through a throwaway rig, so
// the measured rig reopens them from its WALs.
func (w *fleetReplay) prepare(env *env) ([]string, error) {
	w.bodies = make(map[string][]byte, len(w.plan.pool))
	for _, c := range w.plan.pool {
		b, err := json.Marshal(c.request())
		if err != nil {
			return nil, err
		}
		w.bodies[c.key()] = b
	}
	dirs, err := env.storeDirs("fleet", w.kind().backends)
	if err != nil {
		return nil, err
	}
	r, err := startRig(w.kind(), dirs, false)
	if err != nil {
		return nil, err
	}
	client := newClient()
	for _, c := range w.plan.committed {
		status, raw, _, err := post(client, r.fts.URL+"/v1/verdict", w.bodies[c.key()])
		s := verdictServed(c, verdictBody(raw))
		s.failed = s.failed || err != nil || status != http.StatusOK
		env.served = append(env.served, s)
	}
	client.CloseIdleConnections()
	if err := r.close(); err != nil {
		return nil, err
	}
	return dirs, nil
}

func (w *fleetReplay) measure(env *env, r *rig, d time.Duration, round int, tr *tracer) *loadStats {
	return fleetLoad(r, w.plan, w.bodies, env.clients, d, round*roundStride, tr)
}

// campaignFanout: back-to-back campaigns through the front, each half
// replay and half cold.
type campaignFanout struct{ plan *fanoutPlan }

func (w *campaignFanout) kind() rigKind {
	return rigKind{backends: 2, http: true, campaigns: true, profiles: fleetProfiles}
}

func (w *campaignFanout) prepare(env *env) ([]string, error) {
	return env.storeDirs("fanout", w.kind().backends)
}

func (w *campaignFanout) measure(env *env, r *rig, d time.Duration, round int, tr *tracer) *loadStats {
	return fanoutLoad(r, w.plan, d, round, tr)
}
