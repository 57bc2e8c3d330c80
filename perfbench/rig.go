package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/front"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
)

// A rig is the system under test, assembled in-process the way
// cmd/scarecrowd and cmd/scarefront assemble it: per backend a store, a
// verdict service and (where used) a campaign engine, and for the fleet
// workloads an HTTP listener per backend behind a front.

// rigKind describes what a workload's rig contains.
type rigKind struct {
	backends  int
	http      bool // listeners plus a front
	campaigns bool // a checkpointing campaign engine per backend
	profiles  []string
}

type backend struct {
	st  *store.Store
	srv *service.Server
	eng *campaign.Engine
	ts  *httptest.Server
}

type rig struct {
	backends []*backend
	front    *front.Front
	fts      *httptest.Server
	// openDur is how long each backend's store.Open took.
	openDur []time.Duration
	// warm holds the verdicts served by the set-up's first-touch runs.
	warm []served
}

// newClient is the load generator's HTTP client: no overall timeout,
// because campaign event streams are long-lived.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 8}}
}

// startRig opens one backend per directory and, when warm is set, runs
// the first-touch warm-up: every worker of every backend builds its lab
// template for each profile, so that cost lands in set-up rather than in
// the measured phase.
func startRig(kind rigKind, dirs []string, warm bool) (*rig, error) {
	r := &rig{}
	urls := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		b := &backend{}
		t := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("opening store %s: %w", dir, err)
		}
		r.openDur = append(r.openDur, time.Since(t))
		b.st = st
		b.srv = service.NewServer(service.Config{Store: st})
		b.srv.Start()
		r.backends = append(r.backends, b)
		if kind.campaigns {
			b.eng = campaign.NewEngine(b.srv, campaign.Options{Checkpoints: st})
			if _, err := b.eng.Resume(); err != nil {
				r.close()
				return nil, fmt.Errorf("resuming campaigns: %w", err)
			}
		}
		if kind.http {
			mux := http.NewServeMux()
			mux.Handle("/", b.srv.Handler())
			if b.eng != nil {
				b.eng.Register(mux)
			}
			b.ts = httptest.NewServer(mux)
			urls = append(urls, b.ts.URL)
		}
	}
	if kind.http {
		f, err := front.New(front.Options{Backends: urls, FrontID: "perfbench"})
		if err != nil {
			r.close()
			return nil, err
		}
		f.Start()
		r.front = f
		r.fts = httptest.NewServer(f.Handler())
	}
	if warm {
		if err := r.warmUp(kind.profiles); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// warmUpCells are the first-touch requests for one backend: one cheap
// run per worker and profile, at reserved seeds. The jobs are submitted
// together while every worker is idle, and a channel send hands each
// waiting worker its own job, so each worker's lab builds its template.
func warmUpCells(workers int, profiles []string) []cell {
	var out []cell
	for pi, p := range profiles {
		for w := 0; w < workers; w++ {
			out = append(out, cell{Specimen: "scaware", Profile: p, Seed: reservedSeedBase + int64(64*pi+w)})
		}
	}
	return out
}

func (r *rig) warmUp(profiles []string) error {
	for _, b := range r.backends {
		workers := b.srv.Snapshot().Workers
		for _, p := range profiles {
			cells := warmUpCells(workers, []string{p})
			jobs := make([]*service.Job, len(cells))
			for i, c := range cells {
				job, err := b.srv.Submit(c.request())
				if err != nil {
					return fmt.Errorf("warm-up submit: %w", err)
				}
				jobs[i] = job
			}
			for i, job := range jobs {
				<-job.Done()
				v := job.Verdict()
				r.warm = append(r.warm, verdictServed(cells[i], v))
			}
		}
	}
	return nil
}

// close tears the rig down: front first, then each backend's listener,
// service (drained), campaign engine and store.
func (r *rig) close() error {
	if r.fts != nil {
		r.fts.Close()
	}
	if r.front != nil {
		r.front.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var errs []error
	for _, b := range r.backends {
		if b.ts != nil {
			b.ts.Close()
		}
		errs = append(errs, b.srv.Shutdown(ctx))
		if b.eng != nil {
			errs = append(errs, b.eng.Drain(ctx))
		}
		errs = append(errs, b.st.Close())
	}
	return errors.Join(errs...)
}

// storeStats sums Store.Stats over the backends.
func (r *rig) storeStats() store.Stats {
	var sum store.Stats
	for _, b := range r.backends {
		s := b.st.Stats()
		sum.Gets += s.Gets
		sum.Hits += s.Hits
		sum.Puts += s.Puts
		sum.Compactions += s.Compactions
	}
	return sum
}

// serviceStats sums Server.Snapshot over the backends.
func (r *rig) serviceStats() service.Stats {
	var sum service.Stats
	for _, b := range r.backends {
		s := b.srv.Snapshot()
		sum.Submitted += s.Submitted
		sum.Coalesced += s.Coalesced
		sum.Rejected += s.Rejected
		sum.LabRuns += s.LabRuns
		sum.CacheHits += s.CacheHits
		sum.StoreHits += s.StoreHits
	}
	return sum
}

// historyCells is the fixed WAL history every store starts from: cheap
// catalog and Joe Security cells on the default profile at reserved
// seeds. It is the same for every workload and seed, so set-up time
// compares across runs.
func historyCells(n int) []cell {
	var specs []string
	for _, s := range sweepSpecimens() {
		if s != "spawner" { // its self-spawn loop costs ~30x the others
			specs = append(specs, s)
		}
	}
	out := make([]cell, n)
	for i := range out {
		out[i] = cell{Specimen: specs[i%len(specs)], Seed: reservedSeedBase + 1<<20 + int64(i)}
	}
	return out
}

// historyRecords is the size of the fixed history.
const historyRecords = 2000

// buildHistory commits the fixed history into dir. The verdicts come
// from labs set up as the service sets them up and are appended two per
// PutBatch, the group size the service's committer forms under two
// workers. No service is involved, so no job registry keeps the
// history's specimens alive, and verdicts are written as they are made,
// so the build's memory stays small.
func buildHistory(dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	cells := historyCells(historyRecords)
	workers := runtime.GOMAXPROCS(0)
	recs := make(chan store.Record)
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ls := labSet{}
			for i := w; i < len(cells); i += workers {
				_, v, err := runReference(ls, cells[i])
				if err != nil {
					errs[w] = err
					return
				}
				recs <- store.Record{Key: cells[i].key(), Val: v}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(recs)
	}()
	var batch []store.Record
	for rec := range recs {
		batch = append(batch, rec)
		if len(batch) == 2 && errs[workers] == nil {
			errs[workers] = st.PutBatch(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 && errs[workers] == nil {
		errs[workers] = st.PutBatch(batch)
	}
	return errors.Join(append(errs, st.Close())...)
}

// copyDir copies the regular files of a flat directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
