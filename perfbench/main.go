// Command perfbench is the repository's benchmark. It assembles the
// verdict service, store, front and campaign engine in-process, drives
// one of three closed-loop workloads for a fixed time, checks every
// served verdict against a reference computed by the lab directly, and
// prints each metric with its unit followed by one JSON result line.
//
//	bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs the workload twice, untraced and then with
// spans around every call into a layer, drives the served keys through
// the layers one call at a time, and reports per-layer metrics instead.
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	// rounds is how many set-up + measured rounds the measured time is
	// split into; each round starts from a fresh rig.
	rounds int
	outDir string
	// minSamples is the least number of decomposition calls a traced
	// run makes (enough for a p99).
	minSamples int
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a client of the system sees, measured
// untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdicts_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_frac", "frac"},
	{"allocs_per_verdict", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics of the layers every workload
// reaches. The rest go to the trace report alone (traceOnly).
var perLayer = []metricDef{
	{"malware.resolve_us_p50", "us"},
	{"malware.resolve_allocs", "count"},
	{"analysis.run_ms_p50", "ms"},
	{"analysis.run_ms_p99", "ms"},
	{"analysis.run_allocs", "count"},
	{"analysis.marshal_us_p50", "us"},
	{"analysis.api_calls_per_run", "count"},
	{"analysis.self_spawns_per_run", "count"},
	{"analysis.virtual_s_per_run", "s"},
	{"winsim.clone_us_p50", "us"},
	{"winsim.clone_allocs", "count"},
	{"service.cache_hit_frac", "frac"},
	{"service.store_hit_frac", "frac"},
	{"service.coalesced_frac", "frac"},
	{"service.rejected_frac", "frac"},
	{"service.lab_runs_per_request", "count"},
	{"store.open_ms", "ms"},
	{"store.put_batch_us_p50", "us"},
	{"store.get_us_p50", "us"},
	{"store.bytes_per_verdict", "B"},
	{"store.hit_frac", "frac"},
	{"store.compactions_per_1k_puts", "count"},
	{"runtime.gc_cycles_per_verdict", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "frac"},
}

// traceOnly are the per-layer metrics of layers only some workloads
// reach. They are written to the trace report alone, by the workloads
// that reach them: service submit and wait times (corpus-cold), the
// front's round trips (fleet-replay) and health flips (the front
// workloads), and the campaign engine's timings and counters
// (campaign-fanout).
var traceOnly = []metricDef{
	{"service.submit_us_p50", "us"}, {"service.submit_us_p99", "us"},
	{"service.wait_ms_p50", "ms"}, {"service.wait_ms_p99", "ms"},
	{"front.rtt_ms_p50", "ms"}, {"front.rtt_ms_p99", "ms"},
	{"front.direct_rtt_ms_p50", "ms"}, {"front.overhead_ms_p50", "ms"},
	{"front.health_transitions", "count"},
	{"campaign.makespan_ms_p50", "ms"}, {"campaign.first_cell_ms_p50", "ms"},
	{"campaign.cache_hit_frac", "frac"}, {"campaign.snapshot_events", "count"},
	{"campaign.checkpoint_errors", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host records where and what was measured.
type host struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// report is the full record written to the output directory.
type report struct {
	Host       host                   `json:"host"`
	Result     result                 `json:"result"`
	TraceOnly  map[string]metricValue `json:"trace_only,omitempty"`
	SelfTimes  map[string]float64     `json:"load_self_ms_per_request,omitempty"`
	SetupS     []float64              `json:"setup_s_each"`
	RoundRates []float64              `json:"verdicts_per_s_each"`
	RoundP50   []float64              `json:"latency_p50_ms_each"`
	RoundRSS   []float64              `json:"peak_rss_rise_mb_each"`
	Measured   verdictCheck           `json:"measured_check"`
	Other      verdictCheck           `json:"setup_and_traced_check"`
	Problems   []string               `json:"problems,omitempty"`
	SpansFiles []string               `json:"spans_files,omitempty"`
	Generation string                 `json:"generated_at"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "corpus-cold", "corpus-cold, fleet-replay or campaign-fanout")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.clients = min(2, runtime.NumCPU()) // closed-loop clients, at most nproc
	cfg.rounds = 10
	cfg.minSamples = 1000 // supports a p99 of the per-call times
	cfg.outDir = filepath.Join(".bench_build", "perfbench")
	// Every run must end within 180 s; a hang is reported, not waited out.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s, aborting")
		os.Exit(3)
	})
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and writes its report. Diagnostics go
// to out; the caller prints the JSON line.
func run(cfg config, out io.Writer) (*report, error) {
	m, err := measureRun(cfg, out)
	if err != nil {
		return nil, err
	}
	return m.finish(cfg, out)
}

// measured is a run's raw observations, checked by the oracle.
type measured struct {
	rep           *report
	u, t          *loadStats
	dec           *decomposition
	openMS        []float64
	loadTr, decTr *tracer
}

// measureRun sets up, runs the measured phase (and the traced one), and
// checks every served verdict.
func measureRun(cfg config, out io.Writer) (*measured, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	env := &env{clients: cfg.clients, tmp: tmp, history: filepath.Join(tmp, "history")}
	rep := &report{Host: host{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}, Generation: time.Now().UTC().Format(time.RFC3339)}
	fmt.Fprintf(out, "perfbench %s: seed %d, %gs, trace %v, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.Host.NumCPU, rep.Host.GoMaxProcs, rep.Host.GoVersion, rep.Host.Commit)

	if err := buildHistory(env.history); err != nil {
		return nil, fmt.Errorf("building the fixed WAL history: %w", err)
	}
	pristine, err := w.prepare(env)
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", cfg.workload, err)
	}
	// setup returns the rig, its set-up time, and the process RSS just
	// before it began.
	setup := func(tag string) (*rig, time.Duration, float64, error) {
		dirs := make([]string, len(pristine))
		for i, p := range pristine {
			dirs[i] = env.dir(fmt.Sprintf("%s-%d", tag, i))
			if err := copyDir(p, dirs[i]); err != nil {
				return nil, 0, 0, err
			}
		}
		// Every set-up starts from the same heap: the previous round's
		// garbage collected and returned to the OS.
		debug.FreeOSMemory()
		base := rssMB()
		t := time.Now()
		r, err := startRig(w.kind(), dirs, true)
		d := time.Since(t)
		if err != nil {
			return nil, 0, 0, err
		}
		env.served = append(env.served, r.warm...)
		return r, d, base, nil
	}
	closeRig := func(r *rig, tag string) error {
		err := r.close()
		for i := range pristine {
			os.RemoveAll(env.dir(fmt.Sprintf("%s-%d", tag, i)))
		}
		return err
	}

	// The measured time is split into rounds, each on a freshly set-up
	// rig serving its own slice of the seed's request stream, so a run
	// repeats the measurement and reports medians across the repeats.
	// The traced pass replays the same rounds.
	rounds := max(cfg.rounds, 1)
	roundDur := time.Duration(cfg.seconds * float64(time.Second) / float64(rounds))
	var openMS []float64
	pass := func(tag string, tr *tracer) (*loadStats, error) {
		total := newLoadStats()
		for k := 0; k < rounds; k++ {
			rtag := fmt.Sprintf("%s%d", tag, k)
			r, d, base, err := setup(rtag)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if k == 0 {
				total.rssBase = base
			}
			if tr == nil {
				rep.SetupS = append(rep.SetupS, d.Seconds())
				for _, od := range r.openDur {
					openMS = append(openMS, ms(od))
				}
			}
			ls := w.measure(env, r, roundDur, k, tr)
			ls.rssMB[0] -= base
			total.add(ls)
			if err := closeRig(r, rtag); err != nil {
				return nil, fmt.Errorf("tearing down: %w", err)
			}
		}
		return total, nil
	}
	u, err := pass("round", nil)
	if err != nil {
		return nil, err
	}
	var t *loadStats
	var loadTr, decTr *tracer
	if cfg.trace {
		loadTr = newTracer()
		if t, err = pass("traced", loadTr); err != nil {
			return nil, err
		}
	}

	// The oracle, outside every timed region.
	o := newOracle()
	other := append([]served(nil), env.served...)
	if t != nil {
		other = append(other, t.served...)
	}
	cells := distinctCells(u.served, other)
	var dec *decomposition
	if cfg.trace {
		decTr = newTracer()
		if dec, err = o.decompose(cells, cfg.minSamples, decTr, env.dir("decompose")); err != nil {
			return nil, err
		}
		env.problems = append(env.problems, dec.problems...)
	} else if err := o.compute(cells, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	o.check(&rep.Measured, u.served)
	o.check(&rep.Other, other)
	rep.Problems = append(append(rep.Problems, env.problems...), u.problems...)
	if t != nil {
		rep.Problems = append(rep.Problems, t.problems...)
	}

	return &measured{rep: rep, u: u, t: t, dec: dec, openMS: openMS, loadTr: loadTr, decTr: decTr}, nil
}

// finish computes the metrics, prints them and writes the report.
func (m *measured) finish(cfg config, out io.Writer) (*report, error) {
	rep, u, t := m.rep, m.u, m.t
	failed := rep.Measured.Failed
	rep.RoundRates, rep.RoundP50, rep.RoundRSS = u.rates, u.p50s, u.rssMB
	// Every workload is one on which no request fails, so a failure
	// anywhere, measured or not, makes the run incorrect.
	rep.Result = result{
		Correct: rep.Measured.Mismatched == 0 && rep.Other.Mismatched == 0 && failed == 0 &&
			rep.Other.Failed == 0 && len(rep.Problems) == 0,
		Attempted: u.attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	if u.attempted == 0 {
		return nil, errors.New("the measured phase attempted nothing")
	}
	var values map[string]float64
	var defs []metricDef
	var err error
	if cfg.trace {
		values, err = layerMetrics(u, t, m.dec, m.openMS)
		defs = perLayer
		rep.TraceOnly = traceOnlyMetrics(t)
		rep.SelfTimes = perRequest(selfTimes(m.loadTr.all()), t.attempted)
	} else {
		values, err = endToEndMetrics(u, rep.SetupS, failed)
		defs = endToEnd
	}
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Result.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, d := range traceOnly {
		if v, ok := rep.TraceOnly[d.name]; ok {
			fmt.Fprintf(out, "  %-32s %14.6g %s (trace report only)\n", d.name, v.Value, d.unit)
		}
	}
	fmt.Fprintf(out, "  oracle: measured %d served, %d failed, %d mismatched; set-up/traced %d served, %d failed, %d mismatched\n",
		rep.Measured.Served, rep.Measured.Failed, rep.Measured.Mismatched, rep.Other.Served, rep.Other.Failed, rep.Other.Mismatched)
	for _, p := range append(append([]string(nil), rep.Problems...), append(rep.Measured.Examples, rep.Other.Examples...)...) {
		fmt.Fprintln(out, "  problem:", p)
	}
	if err := writeReport(cfg, rep, map[string]*tracer{"load": m.loadTr, "decompose": m.decTr}); err != nil {
		return nil, err
	}
	return rep, nil
}

// distinctCells lists each served cell once, measured-phase cells first.
func distinctCells(lists ...[]served) []cell {
	seen := make(map[string]bool)
	var out []cell
	for _, l := range lists {
		for _, s := range l {
			if k := s.cell.key(); !seen[k] {
				seen[k] = true
				out = append(out, s.cell)
			}
		}
	}
	return out
}

func endToEndMetrics(u *loadStats, setupS []float64, failed int) (map[string]float64, error) {
	p50, err := mustPercentile("latency", u.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p99, err := mustPercentile("latency", u.lat, 0.99)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":            median(setupS),
		"verdicts_per_s":     median(u.rates),
		"latency_p50_ms":     p50,
		"latency_p99_ms":     p99,
		"ok_frac":            1 - float64(failed)/float64(u.attempted),
		"allocs_per_verdict": ratio(float64(u.mallocs), float64(u.completed)),
		"peak_rss_mb":        u.rssBase + median(u.rssMB),
	}, nil
}

func layerMetrics(u, t *loadStats, d *decomposition, openMS []float64) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	pct := func(name string, xs []float64, q float64) {
		if err != nil {
			return
		}
		m[name], err = mustPercentile(name, xs, q)
	}
	pct("malware.resolve_us_p50", d.resolve, 0.5)
	pct("analysis.run_ms_p50", scale(d.run, 1e-3), 0.5)
	pct("analysis.run_ms_p99", scale(d.run, 1e-3), 0.99)
	pct("analysis.marshal_us_p50", d.marshal, 0.5)
	pct("winsim.clone_us_p50", d.clone, 0.5)
	pct("store.put_batch_us_p50", d.put, 0.5)
	pct("store.get_us_p50", d.get, 0.5)
	if err != nil {
		return nil, err
	}
	m["malware.resolve_allocs"] = median(d.resolveAllocs)
	m["analysis.run_allocs"] = median(d.runAllocs)
	m["winsim.clone_allocs"] = median(d.cloneAllocs)
	m["analysis.api_calls_per_run"] = mean(d.apiCalls)
	m["analysis.self_spawns_per_run"] = mean(d.selfSpawns)
	m["analysis.virtual_s_per_run"] = mean(d.virtualS)
	m["store.bytes_per_verdict"] = mean(d.frameBytes)

	sub := float64(t.svc.Submitted)
	m["service.cache_hit_frac"] = ratio(float64(t.svc.CacheHits), sub)
	m["service.store_hit_frac"] = ratio(float64(t.svc.StoreHits), sub)
	m["service.coalesced_frac"] = ratio(float64(t.svc.Coalesced), sub)
	m["service.rejected_frac"] = ratio(float64(t.svc.Rejected), sub)
	m["service.lab_runs_per_request"] = ratio(float64(t.svc.LabRuns), sub)
	m["store.open_ms"] = median(openMS)
	m["store.hit_frac"] = ratio(float64(t.sto.Hits), float64(t.sto.Gets))
	m["store.compactions_per_1k_puts"] = 1000 * ratio(float64(t.sto.Compactions), float64(t.sto.Puts))
	m["runtime.gc_cycles_per_verdict"] = ratio(float64(t.gcCycles), float64(t.completed))
	m["runtime.gc_pause_ms_total"] = ms(t.gcPause)
	m["runtime.heap_peak_mb"] = float64(t.heapPeak) / (1 << 20)
	m["trace.overhead_frac"] = 1 - ratio(median(t.rates), median(u.rates))
	return m, nil
}

// traceOnlyMetrics computes the trace-only metrics of the layers the
// traced pass reached; a workload without a front or campaigns records
// no such counters or samples, and the metric is left out.
func traceOnlyMetrics(t *loadStats) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range traceOnly {
		var v float64
		var ok bool
		switch d.name {
		case "campaign.cache_hit_frac":
			var cells float64
			cells, ok = t.counts["campaign.cells"]
			v = ratio(t.counts["campaign.cache_hits"], cells)
		case "front.health_transitions", "campaign.snapshot_events", "campaign.checkpoint_errors":
			v, ok = t.counts[d.name]
		default:
			series, q := traceOnlySource(d.name)
			v, ok = percentile(t.series[series], q)
		}
		if ok {
			out[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return out
}

// traceOnlySource maps a trace-only metric to its sample series and
// quantile: "front.rtt_ms_p99" is the 0.99 quantile of "front.rtt_ms".
func traceOnlySource(name string) (series string, q float64) {
	if base, ok := strings.CutSuffix(name, "_p99"); ok {
		return base, 0.99
	}
	return strings.TrimSuffix(name, "_p50"), 0.5
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// perRequest turns per-layer self-time totals into ms per request.
func perRequest(self map[string]time.Duration, requests int) map[string]float64 {
	out := make(map[string]float64, len(self))
	for layer, d := range self {
		out[layer] = ratio(ms(d), float64(requests))
	}
	return out
}

// commit names the measured source revision when the benchmark's
// launcher could determine it.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// writeReport writes the run's report and, for a traced run, one spans
// file per tracer.
func writeReport(cfg config, rep *report, tracers map[string]*tracer) error {
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace0", cfg.workload, cfg.seed)
	if cfg.trace {
		base = fmt.Sprintf("%s-seed%d-trace1", cfg.workload, cfg.seed)
	}
	for _, name := range []string{"load", "decompose"} {
		tr := tracers[name]
		if tr == nil {
			continue
		}
		spans := tr.all()
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		path := filepath.Join(cfg.outDir, base+"."+name+".spans.jsonl")
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		rep.SpansFiles = append(rep.SpansFiles, path)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, base+".json"), append(buf, '\n'), 0o644)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
