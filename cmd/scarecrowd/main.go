// Command scarecrowd serves verdicts over HTTP: a concurrent front end to
// the analysis lab cluster. Submit a specimen (catalog name or evasion
// recipe) with a machine profile and seed; get back the canonical verdict
// JSON — deactivated or survived, first trigger, suppressed behaviour.
//
//	scarecrowd -addr :8080 -workers 8 -data-dir /var/lib/scarecrowd
//
//	curl -s localhost:8080/v1/verdict -d '{"specimen":"kasidet"}'
//	curl -s localhost:8080/v1/submit  -d '{"specimen":"wannacry","seed":7}'
//	curl -s localhost:8080/v1/result/j00000002
//	curl -s localhost:8080/v1/campaign -d '{"specimens":["kasidet","locky"],"seeds":[1,2,3]}'
//	curl -sN localhost:8080/v1/campaign/c00000001/events
//	curl -s localhost:8080/statusz
//
// Identical (specimen, profile, seed) submissions are served from an LRU
// verdict cache — runs are deterministic, so the cached bytes are exact —
// and concurrent identical submissions coalesce onto a single lab run.
// Clean verdicts are additionally committed to a write-ahead log under
// -data-dir, so a restarted (or SIGKILLed) daemon serves every verdict it
// ever computed without re-running the lab; -no-persist opts out. Batch
// sweeps go through /v1/campaign, which fans a specimens × profiles ×
// seeds manifest into the worker queue under a fairness quota and streams
// per-verdict progress over SSE. A full queue answers 429 with Retry-After
// instead of blocking. SIGINT and SIGTERM drain gracefully: in-flight jobs
// finish (up to -drain), new submissions are refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
)

// options collects the daemon's flag-configurable knobs.
type options struct {
	Addr      string
	Workers   int
	Queue     int
	Cache     int
	Drain     time.Duration
	DataDir   string
	NoPersist bool
}

func main() {
	var opts options
	flag.StringVar(&opts.Addr, "addr", ":8080", "listen address")
	flag.IntVar(&opts.Workers, "workers", 0, "lab workers (0 = GOMAXPROCS)")
	flag.IntVar(&opts.Queue, "queue", 0, "job queue depth (0 = 4x workers)")
	flag.IntVar(&opts.Cache, "cache", 4096, "verdict cache entries")
	flag.DurationVar(&opts.Drain, "drain", 30*time.Second, "graceful-shutdown drain deadline")
	flag.StringVar(&opts.DataDir, "data-dir", "scarecrowd-data", "durable verdict store directory")
	flag.BoolVar(&opts.NoPersist, "no-persist", false, "serve from memory only; do not touch the verdict WAL")
	flag.Parse()
	if err := run(opts, nil); err != nil {
		fmt.Fprintln(os.Stderr, "scarecrowd:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until a termination signal drains it.
// ready, when non-nil, receives the bound listen address once the socket
// is open (tests bind :0 and need the resolved port).
func run(opts options, ready chan<- string) error {
	var st *store.Store
	if !opts.NoPersist {
		var err error
		st, err = store.Open(opts.DataDir, store.Options{})
		if err != nil {
			return fmt.Errorf("opening verdict store: %w", err)
		}
		defer st.Close()
	}

	srv := service.NewServer(service.Config{
		Workers:    opts.Workers,
		QueueDepth: opts.Queue,
		CacheSize:  opts.Cache,
		Store:      st,
	})
	srv.Start()
	engOpts := campaign.Options{}
	if st != nil {
		engOpts.Checkpoints = st
	}
	eng := campaign.NewEngine(srv, engOpts)
	resumed, err := eng.Resume()
	if err != nil {
		fmt.Fprintf(os.Stderr, "scarecrowd: resuming campaigns: %v\n", err)
	}
	if len(resumed) > 0 {
		fmt.Printf("scarecrowd: resumed %d checkpointed campaign(s)\n", len(resumed))
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", opts.Addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	eng.Register(mux)
	httpSrv := service.NewHTTPServer(mux)

	persisted := "persistence off"
	if st != nil {
		persisted = fmt.Sprintf("store %s: %d verdicts", st.Dir(), st.Len())
	}
	// Catch SIGINT/SIGTERM before announcing readiness: a signal sent
	// as soon as the daemon is up must drain it, not kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fmt.Printf("scarecrowd: serving on %s (workers=%d, %s)\n", ln.Addr(), srv.Snapshot().Workers, persisted)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	case s := <-sig:
		fmt.Printf("scarecrowd: %v, draining (deadline %s)\n", s, opts.Drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.Drain)
	defer cancel()
	// Stop accepting connections first, then drain the job queue: queued
	// and running verdicts complete, new submissions would get 503 anyway.
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "scarecrowd: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	// With the service drained, any campaign still sweeping aborts on its
	// next submit; Drain waits for those final (resumable) checkpoints to
	// land before the deferred store close takes the WAL away.
	if err := eng.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "scarecrowd: campaign drain: %v\n", err)
	}
	stats := srv.Snapshot()
	fmt.Printf("scarecrowd: drained. %d runs, %d cache hits (%.0f%% hit rate), %d store hits, %d coalesced, %d rejected\n",
		stats.LabRuns, stats.CacheHits, 100*stats.CacheHitRate, stats.StoreHits, stats.Coalesced, stats.Rejected)
	return nil
}
