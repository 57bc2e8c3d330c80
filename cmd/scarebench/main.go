// Command scarebench load-tests a scarecrowd instance: it fires a fixed
// number of /v1/verdict requests at a chosen concurrency, cycling a small
// set of (specimen, seed) pairs so the daemon's verdict cache and request
// coalescing actually engage, and reports client-side latency and
// throughput alongside the daemon's own /statusz counters.
//
//	scarecrowd -addr :8080 &
//	scarebench -addr http://localhost:8080 -n 200 -c 8 -out BENCH_service.json
//
// Exit status is nonzero if any request failed, or — with -require-hits —
// if the daemon reports a zero cache hit-rate (the determinism the service
// is built on would not be paying off).
//
// With -campaign the tool instead benchmarks the batch path: it sweeps
// the malware catalog (case studies + Joe Security samples) twice through
// /v1/campaign, following each sweep's SSE stream to its terminal
// summary, and writes BENCH_campaign.json comparing the cold pass against
// the warm replay. -min-warm-speedup turns the comparison into a gate:
// the warm sweep must beat the cold one by that factor, which only
// happens when the verdict cache and durable store are actually serving.
//
// With -front the tool benchmarks the scale-out tier: the same catalog
// sweep pushed through scarefront's hash-routing and SSE-merge layer
// over in-process backend fleets (-front-backends, default 2 and 4),
// against a single-backend baseline, writing BENCH_front.json with
// per-backend and aggregate throughput. -min-scaling gates each fleet
// against min(N, GOMAXPROCS) times the baseline warm rate — the
// parallelism the host can actually express.
//
// With -monitor the tool benchmarks the real-time deterrence tier in
// process: each catalog ransomware row runs once per seed under canary
// planting, the live trace tap, and kill-on-flag enforcement, writing
// BENCH_monitor.json with the detection rate and the files lost before
// each kill. -min-detection-rate and -max-median-files-lost turn those
// numbers into gates.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "scarecrowd base URL")
		n           = flag.Int("n", 200, "total verdict requests")
		c           = flag.Int("c", 8, "concurrent clients")
		samples     = flag.String("samples", "kasidet,wannacry,locky,scaware,spawner", "comma-separated catalog samples to cycle")
		seeds       = flag.Int("seeds", 4, "distinct seeds per sample (unique keys = samples x seeds)")
		out         = flag.String("out", "BENCH_service.json", "summary artifact path (empty = skip)")
		requireHits = flag.Bool("require-hits", false, "fail if the daemon reports a zero cache hit-rate")
		wait        = flag.Duration("wait", 30*time.Second, "how long to wait for the daemon to become healthy")

		campaignMode = flag.Bool("campaign", false, "benchmark the batch path: cold+warm catalog sweep via /v1/campaign")
		campaignOut  = flag.String("campaign-out", "BENCH_campaign.json", "campaign artifact path (empty = skip)")
		quota        = flag.Int("quota", 8, "campaign in-flight quota (campaign mode)")
		minSpeedup   = flag.Float64("min-warm-speedup", 0, "fail unless the warm sweep is this many times faster than the cold one (0 = no gate)")

		synthMode    = flag.Bool("synth", false, "benchmark the adversarial fuzzer: fixed-seed coverage-guided campaign, no daemon needed")
		synthOut     = flag.String("synth-out", "BENCH_synth.json", "synth artifact path (empty = skip)")
		synthSeed    = flag.Int64("synth-seed", 1, "campaign seed (synth mode)")
		synthBudget  = flag.Int("synth-budget", 2000, "generations to run (synth mode)")
		synthDepth   = flag.Int("synth-depth", 3, "max predicate depth (synth mode)")
		synthWorkers = flag.Int("synth-workers", 0, "evaluation fan-out width (0 = GOMAXPROCS)")
		minCovGrowth = flag.Float64("min-cov-growth", 0, "fail unless unique coverage per 1k generations meets this floor (0 = no gate)")

		frontMode     = flag.Bool("front", false, "benchmark the scale-out tier: cold+warm sweeps through scarefront over in-process backend fleets, no daemon needed")
		frontOut      = flag.String("front-out", "BENCH_front.json", "front artifact path (empty = skip)")
		frontBackends = flag.String("front-backends", "2,4", "comma-separated fleet sizes to measure against the N=1 baseline (front mode)")
		minScaling    = flag.Float64("min-scaling", 0, "fail unless each fleet's aggregate warm rate is at least this fraction of min(N, GOMAXPROCS) x the single-backend rate (0 = no gate)")

		monitorMode      = flag.Bool("monitor", false, "benchmark the real-time deterrence tier: monitored runs with canary planting and kill-on-flag, no daemon needed")
		monitorOut       = flag.String("monitor-out", "BENCH_monitor.json", "monitor artifact path (empty = skip)")
		monitorSamples   = flag.String("monitor-samples", "wannacry,locky,cryptowall,wannacry-gated,locky-gated", "comma-separated catalog samples to monitor")
		monitorSeeds     = flag.Int("monitor-seeds", 4, "distinct machine seeds per sample (monitor mode)")
		minDetectionRate = flag.Float64("min-detection-rate", 0, "fail unless the deterred fraction meets this floor (0 = no gate)")
		maxMedianLost    = flag.Float64("max-median-files-lost", -1, "fail if the median files lost before kill exceeds this (negative = no gate)")
	)
	flag.Parse()

	if *synthMode {
		runSynthMode(synthOptions{
			Seed:         *synthSeed,
			Budget:       *synthBudget,
			MaxDepth:     *synthDepth,
			Workers:      *synthWorkers,
			MinCovGrowth: *minCovGrowth,
		}, *synthOut)
		return
	}

	if *frontMode {
		fleets, err := parseFleets(*frontBackends)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scarebench:", err)
			os.Exit(1)
		}
		runFrontMode(frontOptions{
			Fleets:     fleets,
			Seeds:      *seeds,
			Quota:      *quota,
			MinScaling: *minScaling,
		}, *frontOut)
		return
	}

	if *monitorMode {
		runMonitorMode(monitorOptions{
			Samples:            strings.Split(*monitorSamples, ","),
			Seeds:              *monitorSeeds,
			MinDetectionRate:   *minDetectionRate,
			MaxMedianFilesLost: *maxMedianLost,
		}, *monitorOut)
		return
	}

	if *campaignMode {
		runCampaignMode(campaignOptions{
			Addr:  strings.TrimRight(*addr, "/"),
			Seeds: *seeds,
			Quota: *quota,
			Wait:  *wait,
		}, *campaignOut, *minSpeedup)
		return
	}

	summary, err := bench(benchOptions{
		Addr:    strings.TrimRight(*addr, "/"),
		N:       *n,
		C:       *c,
		Samples: strings.Split(*samples, ","),
		Seeds:   *seeds,
		Wait:    *wait,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarebench:", err)
		os.Exit(1)
	}
	fmt.Print(summary)
	if *out != "" {
		buf, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scarebench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "scarebench:", err)
			os.Exit(1)
		}
	}
	if summary.Errors > 0 {
		fmt.Fprintf(os.Stderr, "scarebench: %d requests failed\n", summary.Errors)
		os.Exit(1)
	}
	if *requireHits && summary.CacheHitRate == 0 {
		fmt.Fprintln(os.Stderr, "scarebench: daemon reports zero cache hit-rate")
		os.Exit(1)
	}
}

type benchOptions struct {
	Addr    string
	N, C    int
	Samples []string
	Seeds   int
	Wait    time.Duration
}

// Summary is the benchmark result, printed and written to -out.
type Summary struct {
	Benchmark   string `json:"benchmark"`
	Addr        string `json:"addr"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	UniqueKeys  int    `json:"unique_keys"`

	Errors  int `json:"errors"`
	Retried int `json:"retried_429"`

	WallS        float64 `json:"wall_s"`
	VerdictsPerS float64 `json:"verdicts_per_s"`
	// ExecutionsPerS counts verdict-equivalent machine executions served
	// per wall second (2 per verdict: raw + protected) — directly
	// comparable to analysis.RunReport.Throughput for a single-process
	// sweep.
	ExecutionsPerS float64 `json:"executions_per_s"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`

	// Daemon-side counters from /statusz after the run.
	CacheHitRate float64 `json:"cache_hit_rate"`
	LabRuns      uint64  `json:"lab_runs"`
	Coalesced    uint64  `json:"coalesced"`
	Rejected     uint64  `json:"rejected"`
}

func (s Summary) String() string {
	return fmt.Sprintf(
		"scarebench: %d requests, %d clients, %d unique keys\n"+
			"  wall %.2fs, %.1f verdicts/s (%.1f executions/s)\n"+
			"  latency p50 %.2fms  p95 %.2fms  max %.2fms\n"+
			"  daemon: %d lab runs, %.0f%% cache hit-rate, %d coalesced, %d rejected, %d errors (%d retried on 429)\n",
		s.Requests, s.Concurrency, s.UniqueKeys,
		s.WallS, s.VerdictsPerS, s.ExecutionsPerS,
		s.LatencyP50Ms, s.LatencyP95Ms, s.LatencyMaxMs,
		s.LabRuns, 100*s.CacheHitRate, s.Coalesced, s.Rejected, s.Errors, s.Retried)
}

// statusz mirrors the fields scarebench reads from the daemon's snapshot.
type statusz struct {
	CacheHitRate float64 `json:"cache_hit_rate"`
	LabRuns      uint64  `json:"lab_runs"`
	Coalesced    uint64  `json:"coalesced"`
	Rejected     uint64  `json:"rejected"`
}

func bench(opts benchOptions) (Summary, error) {
	if err := waitHealthy(opts.Addr, opts.Wait); err != nil {
		return Summary{}, err
	}
	if opts.Seeds < 1 {
		opts.Seeds = 1
	}

	// The request mix cycles samples x seeds unique keys; with n well above
	// that product, most requests replay a key and must be served from the
	// cache (or coalesce while the first run is still in flight).
	bodies := make([][]byte, 0, len(opts.Samples)*opts.Seeds)
	for _, sample := range opts.Samples {
		sample = strings.TrimSpace(sample)
		if sample == "" {
			continue
		}
		for seed := 1; seed <= opts.Seeds; seed++ {
			body, err := json.Marshal(map[string]any{"specimen": sample, "seed": seed})
			if err != nil {
				return Summary{}, err
			}
			bodies = append(bodies, body)
		}
	}
	if len(bodies) == 0 {
		return Summary{}, fmt.Errorf("no samples to bench")
	}

	var (
		mu        sync.Mutex
		latencies = make([]time.Duration, 0, opts.N)
		errCount  int
		retried   int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.C; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			for i := range work {
				t0 := time.Now()
				retries, err := verdict(client, opts.Addr, bodies[i%len(bodies)])
				elapsed := time.Since(t0)
				mu.Lock()
				if err != nil {
					errCount++
					fmt.Fprintf(os.Stderr, "scarebench: request %d: %v\n", i, err)
				} else {
					latencies = append(latencies, elapsed)
				}
				retried += retries
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < opts.N; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	summary := Summary{
		Benchmark:   "scarebench",
		Addr:        opts.Addr,
		Requests:    opts.N,
		Concurrency: opts.C,
		UniqueKeys:  len(bodies),
		Errors:      errCount,
		Retried:     retried,
		WallS:       wall.Seconds(),
	}
	if wall > 0 {
		summary.VerdictsPerS = float64(len(latencies)) / wall.Seconds()
		summary.ExecutionsPerS = 2 * summary.VerdictsPerS
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		summary.LatencyP50Ms = ms(latencies[len(latencies)/2])
		summary.LatencyP95Ms = ms(latencies[len(latencies)*95/100])
		summary.LatencyMaxMs = ms(latencies[len(latencies)-1])
	}

	st, err := readStatusz(opts.Addr)
	if err != nil {
		return summary, fmt.Errorf("reading statusz: %w", err)
	}
	summary.CacheHitRate = st.CacheHitRate
	summary.LabRuns = st.LabRuns
	summary.Coalesced = st.Coalesced
	summary.Rejected = st.Rejected
	return summary, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// verdict posts one synchronous verdict request, retrying on 429 with the
// advertised Retry-After (bounded — a drowning daemon should fail the
// bench, not hang it).
func verdict(client *http.Client, addr string, body []byte) (retries int, err error) {
	const maxRetries = 10
	for {
		resp, err := client.Post(addr+"/v1/verdict", "application/json", bytes.NewReader(body))
		if err != nil {
			return retries, err
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var doc map[string]any
			if err := json.Unmarshal(payload, &doc); err != nil {
				return retries, fmt.Errorf("verdict not JSON: %v", err)
			}
			if doc["category"] == "error" {
				return retries, fmt.Errorf("verdict errored: %v", doc["error"])
			}
			return retries, nil
		case http.StatusTooManyRequests:
			if retries++; retries > maxRetries {
				return retries, fmt.Errorf("still 429 after %d retries", maxRetries)
			}
			backoff := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
					backoff = time.Duration(secs) * time.Second
				}
			}
			// Cap the advertised backoff: the bench wants pressure, not
			// politeness.
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			time.Sleep(backoff)
		default:
			return retries, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
		}
	}
}

func waitHealthy(addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon at %s never became healthy: %v", addr, err)
			}
			return fmt.Errorf("daemon at %s never became healthy", addr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func readStatusz(addr string) (statusz, error) {
	var st statusz
	resp, err := http.Get(addr + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
