package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
)

// The bench loop against an in-process scarecrowd: all requests succeed,
// the cycled keys produce cache hits, and the daemon counters line up.
func TestBenchAgainstInProcessService(t *testing.T) {
	srv := service.NewServer(service.Config{Workers: 2, QueueDepth: 16, CacheSize: 64})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	summary, err := bench(benchOptions{
		Addr:    ts.URL,
		N:       40,
		C:       4,
		Samples: []string{"kasidet", "wannacry"},
		Seeds:   2,
		Wait:    5 * time.Second,
	})
	if err != nil {
		t.Fatalf("bench: %v", err)
	}
	if summary.Errors != 0 {
		t.Fatalf("bench reported %d errors", summary.Errors)
	}
	if summary.UniqueKeys != 4 {
		t.Errorf("unique keys = %d, want 4", summary.UniqueKeys)
	}
	// 40 requests over 4 unique keys: at most 4 lab runs, the rest cache
	// hits or coalesced.
	if summary.LabRuns > 4 {
		t.Errorf("lab runs = %d, want <= 4 (caching/coalescing broken)", summary.LabRuns)
	}
	if summary.CacheHitRate == 0 {
		t.Errorf("cache hit rate = 0, want > 0 after %d replays", summary.Requests)
	}
	if summary.VerdictsPerS <= 0 || summary.ExecutionsPerS != 2*summary.VerdictsPerS {
		t.Errorf("throughput accounting wrong: %v verdicts/s, %v executions/s",
			summary.VerdictsPerS, summary.ExecutionsPerS)
	}
	if summary.LatencyMaxMs < summary.LatencyP50Ms {
		t.Errorf("latency percentiles inverted: p50 %v > max %v", summary.LatencyP50Ms, summary.LatencyMaxMs)
	}
	if !strings.Contains(summary.String(), "verdicts/s") {
		t.Errorf("summary rendering missing throughput: %s", summary)
	}
}

func TestBenchUnreachableDaemon(t *testing.T) {
	_, err := bench(benchOptions{
		Addr:    "http://127.0.0.1:1",
		N:       1,
		C:       1,
		Samples: []string{"kasidet"},
		Seeds:   1,
		Wait:    200 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "never became healthy") {
		t.Fatalf("unreachable daemon: err = %v, want health-wait failure", err)
	}
}

func TestBenchNoSamples(t *testing.T) {
	srv := service.NewServer(service.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, err := bench(benchOptions{Addr: ts.URL, N: 1, C: 1, Samples: []string{" "}, Seeds: 1, Wait: time.Second})
	if err == nil || !strings.Contains(err.Error(), "no samples") {
		t.Fatalf("empty sample list: err = %v, want no-samples failure", err)
	}
}

// The -campaign path against an in-process daemon with a real store: the
// cold sweep pays lab runs, the warm sweep replays from cache/WAL, and
// the speedup is measurable.
func TestBenchCampaignColdWarm(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	srv := service.NewServer(service.Config{Workers: 4, QueueDepth: 32, CacheSize: 256, Store: st})
	srv.Start()
	eng := campaign.NewEngine(srv, campaign.Options{})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	eng.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	report, err := benchCampaign(campaignOptions{Addr: ts.URL, Seeds: 1, Quota: 8, Wait: 5 * time.Second})
	if err != nil {
		t.Fatalf("benchCampaign: %v", err)
	}
	specimens := len(sweepSpecimens())
	if report.Jobs != specimens {
		t.Fatalf("jobs = %d, want %d (one per specimen)", report.Jobs, specimens)
	}
	if report.Cold.Completed != specimens || report.Warm.Completed != specimens {
		t.Fatalf("incomplete sweeps: cold %d warm %d of %d", report.Cold.Completed, report.Warm.Completed, specimens)
	}
	if report.Cold.Errors != 0 || report.Warm.Errors != 0 {
		t.Fatalf("sweep errors: cold %d warm %d", report.Cold.Errors, report.Warm.Errors)
	}
	if report.Warm.CacheHits != specimens {
		t.Fatalf("warm sweep cache hits = %d, want %d (everything replayed)", report.Warm.CacheHits, specimens)
	}
	if report.WarmSpeedup <= 1 {
		t.Fatalf("warm speedup = %.2fx, want > 1x", report.WarmSpeedup)
	}
	if !strings.Contains(report.String(), "warm speedup") {
		t.Fatalf("report rendering missing speedup: %s", report)
	}
	// The honest cold rate counts misses only. This daemon is fresh, so
	// every cold job is a miss and the uncached rate must equal the raw
	// one; the field must never exceed it (cache hits can only inflate
	// the raw number).
	wantUncached := float64(report.Cold.Completed-report.Cold.CacheHits) / report.Cold.WallS
	if diff := report.ColdUncachedVerdictsPerS - wantUncached; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cold_uncached_verdicts_per_s = %.4f, want %.4f", report.ColdUncachedVerdictsPerS, wantUncached)
	}
	if report.ColdUncachedVerdictsPerS > report.Cold.VerdictsPerS {
		t.Fatalf("uncached rate %.1f/s exceeds the raw cold rate %.1f/s",
			report.ColdUncachedVerdictsPerS, report.Cold.VerdictsPerS)
	}
}
