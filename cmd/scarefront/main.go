// Command scarefront scales the verdict service horizontally: one HTTP
// front over N scarecrowd backends. Each verdict key — the canonical
// (specimen, profile, seed) triple — is consistent-hashed to one owning
// backend, so every backend's cache, WAL, and coalescing window keeps
// working exactly as it does standalone, and replays stay byte-identical
// through the front.
//
//	scarefront -addr :8080 -backends http://10.0.0.1:8081,http://10.0.0.2:8081
//
//	curl -s localhost:8080/v1/verdict -d '{"specimen":"kasidet"}'
//	curl -s localhost:8080/v1/campaign -d '{"specimens":["kasidet","locky"],"seeds":[1,2,3]}'
//	curl -sN localhost:8080/v1/campaign/f00000001/events
//	curl -s localhost:8080/statusz
//
// Campaign manifests fan out as per-backend sub-campaigns; the front
// merges the backends' SSE streams into one resumable stream with its
// own monotonic sequence. Backends that stop answering are marked
// degraded — their shard of the key space parks with 503 until they
// recover — rather than failing the whole front. A backend that dies
// mid-campaign and restarts resumes its sub-campaign from its WAL
// checkpoint; the front re-adopts it by tag and the sweep completes
// with no lost or duplicated cells.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scarecrow/internal/front"
	"scarecrow/internal/service"
)

// options collects the front's flag-configurable knobs.
type options struct {
	Addr           string
	Backends       string
	Vnodes         int
	HealthInterval time.Duration
	Drain          time.Duration
	MaxJobs        int
}

func main() {
	var opts options
	flag.StringVar(&opts.Addr, "addr", ":8080", "listen address")
	flag.StringVar(&opts.Backends, "backends", "", "comma-separated scarecrowd base URLs (required)")
	flag.IntVar(&opts.Vnodes, "vnodes", 0, "hash-ring virtual nodes per backend (0 = 64)")
	flag.DurationVar(&opts.HealthInterval, "health-interval", 2*time.Second, "backend health-probe period")
	flag.DurationVar(&opts.Drain, "drain", 30*time.Second, "graceful-shutdown drain deadline")
	flag.IntVar(&opts.MaxJobs, "max-jobs", 0, "campaign cell cap per manifest (0 = 16384)")
	flag.Parse()
	if err := run(opts, nil); err != nil {
		fmt.Fprintln(os.Stderr, "scarefront:", err)
		os.Exit(1)
	}
}

// run starts the front and blocks until a termination signal stops it.
// ready, when non-nil, receives the bound listen address once the
// socket is open (tests bind :0 and need the resolved port).
func run(opts options, ready chan<- string) error {
	var backends []string
	for _, b := range strings.Split(opts.Backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	f, err := front.New(front.Options{
		Backends:       backends,
		Vnodes:         opts.Vnodes,
		HealthInterval: opts.HealthInterval,
		MaxJobs:        opts.MaxJobs,
	})
	if err != nil {
		return fmt.Errorf("building front: %w", err)
	}
	f.Start()
	defer f.Close()

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", opts.Addr, err)
	}
	httpSrv := service.NewHTTPServer(f.Handler())

	// Catch SIGINT/SIGTERM before announcing readiness: a signal sent
	// as soon as the front is up must drain it, not kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fmt.Printf("scarefront: serving on %s over %d backends\n", ln.Addr(), len(backends))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	case s := <-sig:
		fmt.Printf("scarefront: %v, draining (deadline %s)\n", s, opts.Drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.Drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "scarefront: http shutdown: %v\n", err)
	}
	// The deferred Close stops follower goroutines; backends keep their
	// own sub-campaigns (and checkpoints), so a restarted front re-adopts
	// them by tag rather than losing the sweep.
	st := f.Status()
	fmt.Printf("scarefront: drained. %d/%d backends healthy, %d campaigns\n", st.Healthy, len(st.Backends), st.Campaigns)
	return nil
}
