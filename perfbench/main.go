// Command perfbench is the repository benchmark. It drives the simulator
// and the HTTP service only through their public Go and HTTP APIs, for
// one named workload per run, and prints every metric with its unit:
//
//	perfbench --workload sweep|service-cold|service-warm --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, measured with the
// benchmark's own tracing off. With --trace 1 it CPU-profiles the whole
// window, records the benchmark's own spans over half of it, and prints
// the per-layer metrics, including the tracing overhead as the difference
// between the traced and plain halves.
//
// The last line of standard output is the result object benchmark
// runners parse (correct, attempted, failed, metrics); the line before it
// is a report with the run's host metadata, the correctness digest and,
// for every metric, the number of samples, median and quartiles behind
// it. The program's outputs are checked on every run (accounting
// identities, a digest over all simulated statistics, expected HTTP
// statuses); any violation exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/profiling"
)

// runDeadline bounds a whole run, inside the 180 s a runner allows one.
const runDeadline = 165 * time.Second

// maxSetupReps caps how often a cheap set-up repeats.
const maxSetupReps = 41

// config fixes one run's inputs and sizes. The smoke test shrinks it.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// Set-up runs at least setupReps times, and again while the set-ups
	// so far took less than setupBudget; setup_s is their median.
	setupReps   int
	setupBudget time.Duration
	// perClass is how many catalogue traces the sweep samples per class.
	perClass int
	// digestJobs is how many leading service-cold jobs the digest covers;
	// the run keeps measuring until at least this many have completed.
	digestJobs int
}

func defaultConfig() config {
	return config{
		setupReps:   5,
		setupBudget: 3 * time.Second,
		perClass:    3,
		digestJobs:  24,
	}
}

// scenario is one named benchmark workload.
type scenario interface {
	// setup builds fresh state under dir, ready to measure.
	setup(ctx context.Context, dir string) error
	// measure drives closed-loop load for at least d.
	measure(ctx context.Context, d time.Duration) (window, error)
	// finish verifies everything run and reports the digest, the
	// simulated work counts and the per-layer readings of the workload.
	finish(ctx context.Context) (outcome, error)
	// teardown releases the state setup built; it is idempotent.
	teardown() error
}

// window is what one measurement window observed.
type window struct {
	elapsed   time.Duration
	instr     uint64 // measured instructions simulated in the window
	attempted int
	failed    int
	rssMB     []float64 // resident memory sampled through the window
	// Per-interval samples behind the end-to-end metrics: throughput in
	// operations per second and op latency p50 and p90. Each metric
	// reports the median over intervals, so a slow stretch of a shared
	// host moves it less than a whole-window figure.
	rates, p50s, p90s []float64
}

// add appends another window's observations to w.
func (w *window) add(o window) {
	w.elapsed += o.elapsed
	w.instr += o.instr
	w.attempted += o.attempted
	w.failed += o.failed
	w.rssMB = append(w.rssMB, o.rssMB...)
	w.rates = append(w.rates, o.rates...)
	w.p50s = append(w.p50s, o.p50s...)
	w.p90s = append(w.p90s, o.p90s...)
}

// completion is one finished closed-loop operation: when it completed,
// in seconds into the window, and its latency.
type completion struct{ at, ms float64 }

// intervals splits completions into equal intervals of about width
// seconds (at least one) and records each one's throughput and latency
// p50 and p90.
func (w *window) intervals(done []completion, width float64) {
	total := w.elapsed.Seconds()
	n := max(1, int(total/width))
	bins := make([][]float64, n)
	for _, c := range done {
		i := min(n-1, int(c.at/total*float64(n)))
		bins[i] = append(bins[i], c.ms)
	}
	for _, b := range bins {
		w.rates = append(w.rates, float64(len(b))/(total/float64(n)))
		if len(b) > 0 {
			w.p50s = append(w.p50s, quantile(b, 0.5))
			w.p90s = append(w.p90s, quantile(b, 0.9))
		}
	}
}

// outcome is a workload's verified result.
type outcome struct {
	digest string
	// layers holds the per-layer readings the workload can make; the
	// rest of the per-layer list reads 0.
	layers map[string]float64
	// violations lists every failed correctness check.
	violations []string
}

// procs is the GOMAXPROCS every workload runs at, and with it the number
// of clients and engine and jobs workers. On a shared 2-vCPU host the
// service workloads' request and job hand-offs between two processors
// made throughput and latency swing by 20% between back-to-back runs of
// one seed, and by up to 2x as the host's load changed; on one processor
// with one client the same runs agreed within 2% (service-cold) and 10%
// (service-warm). The sweep's two workers each ran a fixed half of the
// batch in a seeded order, so its latencies depended on how the halves
// raced; one worker runs the batch one simulation at a time. The
// report's host block records the setting.
const procs = 1

// bench is one run's shared state.
type bench struct {
	cfg   config
	tmp   string
	spans *spans
	// probe reads the engine-side layers; the workload sets it up.
	probe *probe
}

func newScenario(b *bench) (scenario, error) {
	switch b.cfg.workload {
	case "sweep":
		return newSweep(b), nil
	case "service-cold":
		c, err := newCold(b)
		return c, err
	case "service-warm":
		w, err := newWarm(b)
		return w, err
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, service-cold or service-warm)", b.cfg.workload)
}

func main() {
	cfg := defaultConfig()
	var seconds float64
	var traceFlag int
	var spansOut string
	flag.StringVar(&cfg.workload, "workload", "sweep", "sweep | service-cold | service-warm")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&spansOut, "spans", "", "also write the traced run's spans as NDJSON to this file")
	flag.Parse()
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A stuck job or request must not stall the caller: past the run
	// deadline the watchdog reports it and exits without a result.
	watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run deadline exceeded, aborting")
		os.RemoveAll(tmp) //nolint:errcheck // best effort on the way out
		os.Exit(3)
	})
	// An interrupt or termination cancels the run, so the temp dir is
	// still removed on the way out.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(sigCtx, runDeadline)
	rep, res, err := run(ctx, cfg, tmp)
	cancel()
	stopSignals()
	watchdog.Stop()
	if rmErr := os.RemoveAll(tmp); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing temp dir:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if spansOut != "" && rep.spans != nil {
		if err := rep.spans.writeNDJSON(spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	printJSON(os.Stdout, map[string]any{"report": rep})
	printJSON(os.Stdout, res)
	if !res.Correct {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "perfbench: violation:", v)
		}
		os.Exit(1)
	}
}

// result is the last output line, the object benchmark runners parse.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: host metadata, the digest and
// every metric's spread.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Host       hostInfo           `json:"host"`
	Digest     string             `json:"digest"`
	Metrics    map[string]summary `json:"metrics"`
	Violations []string           `json:"violations,omitempty"`
	// KnownDefects names program defects the gate reports but does not
	// fail on (see knownNondeterministic).
	KnownDefects []string       `json:"known_defects,omitempty"`
	SpanCounts   map[string]int `json:"span_counts,omitempty"`
	spans        *spans
}

type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Workers    int    `json:"workers"`
}

func run(ctx context.Context, cfg config, tmp string) (*report, result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b := &bench{
		cfg:   cfg,
		tmp:   tmp,
		spans: &spans{},
	}
	// Program warnings reach stderr; routine info logging stays quiet.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	w, err := newScenario(b)
	if err != nil {
		return nil, result{}, err
	}
	defer w.teardown() //nolint:errcheck // error paths only; success checks it below

	// Set up several times on fresh directories; setup_s is the median.
	// Cheap set-ups repeat until setupBudget has passed, so a set-up of
	// a tenth of a second still gets a steady median. Half the set-ups
	// run before the load and half after it: the host's speed drifts
	// from one half-minute to the next, and set-up time followed it more
	// than the window's figures did when all set-ups ran in the first
	// seconds. In a traced run every second set-up is traced, for the
	// overhead against the rest.
	var setupS, tracedSetupS []float64
	setups := 0
	prev := ""
	setUp := func(reps int, budget time.Duration) error {
		var spent time.Duration
		for i := 0; i < reps || (spent < budget && i < maxSetupReps/2); i++ {
			if prev != "" {
				if err := w.teardown(); err != nil {
					return fmt.Errorf("teardown: %w", err)
				}
				if err := os.RemoveAll(prev); err != nil {
					return err
				}
			}
			prev = filepath.Join(tmp, fmt.Sprintf("setup-%d", setups))
			traced := cfg.trace && setups%2 == 1
			setups++
			b.spans.enable(traced)
			start := time.Now()
			if err := w.setup(ctx, prev); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			d := time.Since(start)
			spent += d
			if traced {
				tracedSetupS = append(tracedSetupS, d.Seconds())
			} else {
				setupS = append(setupS, d.Seconds())
			}
		}
		b.spans.enable(false)
		return nil
	}
	if err := setUp((cfg.setupReps+1)/2, cfg.setupBudget/2); err != nil {
		return nil, result{}, err
	}

	// Run a sixth of the window unmeasured first: the first seconds of
	// load after set-up ran up to half again slower than the rest (heap
	// growth, first touches of mapped slabs), and how long that lasted
	// varied from run to run. Its operations are still checked.
	warmup, err := w.measure(ctx, cfg.window/6)
	if err != nil {
		return nil, result{}, fmt.Errorf("warm-up: %w", err)
	}

	var plain, traced window
	cpuPath := filepath.Join(tmp, "cpu.pprof")
	if !cfg.trace {
		if plain, err = measureWindow(ctx, w, cfg.window); err != nil {
			return nil, result{}, err
		}
	} else {
		// The CPU profile and the engine probe cover the whole window,
		// whose quarters run plain, traced, traced, plain: only the
		// benchmark's own spans differ between the halves, and a steady
		// drift of the host's speed falls on both alike.
		b.probe.mark()
		stopProfile, err := profiling.Start(cpuPath, "")
		if err != nil {
			return nil, result{}, err
		}
		for _, on := range []bool{false, true, true, false} {
			b.spans.enable(on)
			part, err := measureWindow(ctx, w, cfg.window/4)
			if err != nil {
				stopProfile()
				return nil, result{}, err
			}
			if on {
				traced.add(part)
			} else {
				plain.add(part)
			}
		}
		b.spans.enable(false)
		stopProfile()
	}
	out, err := w.finish(ctx)
	if err != nil {
		return nil, result{}, err
	}
	// The engine probe reads the measured service, which the second
	// half of the set-ups replaces.
	probed := b.probe.layers()
	if err := w.teardown(); err != nil {
		out.violations = append(out.violations, fmt.Sprintf("shutting down: %v", err))
	}
	if err := setUp(cfg.setupReps/2, cfg.setupBudget/2); err != nil {
		return nil, result{}, err
	}
	if err := w.teardown(); err != nil {
		out.violations = append(out.violations, fmt.Sprintf("shutting down: %v", err))
	}

	rep := &report{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Trace:        cfg.trace,
		Seconds:      cfg.window.Seconds(),
		Host:         host(cfg),
		Digest:       out.digest,
		Metrics:      map[string]summary{},
		Violations:   out.violations,
		KnownDefects: knownDefects(),
	}
	res := result{
		Attempted: warmup.attempted + plain.attempted + traced.attempted,
		Failed:    warmup.failed + plain.failed + traced.failed,
		Metrics:   map[string]metricValue{},
	}
	res.Correct = len(out.violations) == 0 && res.Failed == 0 && res.Attempted > 0

	e2e := endToEnd(plain, setupS)
	if !cfg.trace {
		for _, m := range endToEndMetrics {
			s := e2e[m.name]
			rep.Metrics[m.name] = s
			res.Metrics[m.name] = metricValue{Value: s.Value, Unit: m.unit}
		}
		return rep, res, nil
	}

	layers := out.layers
	if layers == nil {
		layers = map[string]float64{}
	}
	rollup, err := rollupProfile(ctx, cpuPath)
	if err != nil {
		return nil, result{}, err
	}
	instr, elapsed := plain.instr+traced.instr, plain.elapsed+traced.elapsed
	for k, v := range rollup.perInstr(instr) {
		layers[k] = v
	}
	layers["profile.sim_cpu_share"] = rollup.simShare()
	if elapsed > 0 {
		layers["sim.minstr_per_s"] = float64(instr) / 1e6 / elapsed.Seconds()
	}
	for k, v := range probed {
		layers[k] = v
	}
	for k, v := range b.spans.layers() {
		layers[k] = v
	}
	t := endToEnd(traced, tracedSetupS)
	for _, name := range overheadOf {
		layers["tracing_overhead."+name] = t[name].Value - e2e[name].Value
	}
	for _, m := range perLayerMetrics {
		v := layers[m.name]
		rep.Metrics[m.name] = single(v)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	rep.SpanCounts = b.spans.counts()
	rep.spans = b.spans
	return rep, res, nil
}

// endToEnd summarizes a measurement window as the end-to-end metrics.
func endToEnd(w window, setupS []float64) map[string]summary {
	success := single(0)
	if w.attempted > 0 {
		success = single(1 - float64(w.failed)/float64(w.attempted))
		success.N = w.attempted
	}
	return map[string]summary{
		"setup_s":       summarize(setupS),
		"ops_per_s":     summarize(w.rates),
		"op_ms_p50":     summarize(w.p50s),
		"op_ms_p90":     summarize(w.p90s),
		"rss_mb":        summarize(w.rssMB),
		"success_ratio": success,
	}
}

type metricDef struct{ name, unit string }

// endToEndMetrics is what a --trace 0 run prints, in BENCHMARK.json order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"rss_mb", "MB"},
	{"success_ratio", "ratio"},
}

// overheadOf lists the end-to-end metrics whose traced-minus-plain
// difference a traced run reports.
var overheadOf = []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90"}

// simPackages are the simulator modules the CPU rollup attributes.
var simPackages = []string{"cache", "core", "prefetchers", "prefetch", "trace", "cpu", "dram", "mem", "sim"}

// perLayerMetrics is what a --trace 1 run prints, in BENCHMARK.json order.
var perLayerMetrics = func() []metricDef {
	var m []metricDef
	for _, p := range append(append([]string(nil), simPackages...), "runtime") {
		m = append(m, metricDef{p + ".ns_per_instr", "ns"})
	}
	m = append(m,
		metricDef{"profile.sim_cpu_share", "ratio"},
		metricDef{"sim.minstr_per_s", "Minstr/s"},
		metricDef{"sim.instructions", "count"},
		metricDef{"cache.l1d_accesses", "count"},
		metricDef{"cache.l1d_miss_ratio", "ratio"},
		metricDef{"cache.l2c_miss_ratio", "ratio"},
		metricDef{"cache.llc_miss_ratio", "ratio"},
		metricDef{"prefetch.issued", "count"},
		metricDef{"prefetch.accuracy", "ratio"},
		metricDef{"prefetch.late_ratio", "ratio"},
		metricDef{"prefetch.pq_drop_ratio", "ratio"},
		metricDef{"prefetch.carryover_jobs", "count"},
		metricDef{"dram.requests", "count"},
		metricDef{"dram.row_hit_rate", "ratio"},
		metricDef{"model.gaze_speedup_geomean", "ratio"},
		metricDef{"sim.nondeterministic_results", "count"},
	)
	for _, p := range enginePhases {
		m = append(m, metricDef{"engine." + p + "_ms", "ms"}, metricDef{"engine." + p + "_calls", "count"})
	}
	m = append(m,
		metricDef{"engine.simulated", "count"},
		metricDef{"engine.memo_hits", "count"},
		metricDef{"engine.store_hits", "count"},
		metricDef{"workload.trace_cache_hit_ratio", "ratio"},
		metricDef{"jobs.queue_wait_ms", "ms"},
		metricDef{"jobs.execute_ms", "ms"},
		metricDef{"jobs.finalize_ms", "ms"},
	)
	for _, r := range routes {
		m = append(m, metricDef{r.metric, "ms"})
	}
	m = append(m,
		metricDef{"server.analytics_cache_hit_ratio", "ratio"},
		metricDef{"traceset.upload_ms", "ms"},
	)
	units := map[string]string{}
	for _, e := range endToEndMetrics {
		units[e.name] = e.unit
	}
	for _, name := range overheadOf {
		m = append(m, metricDef{"tracing_overhead." + name, units[name]})
	}
	return m
}()

func host(cfg config) hostInfo {
	return hostInfo{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Workers:    procs,
	}
}

// commit names the source revision: $BENCH_COMMIT, else the VCS stamp
// the go command embeds, else "unknown" (a checkout without .git).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// measureWindow runs one measurement window while sampling the
// process's resident memory every 100 ms.
func measureWindow(ctx context.Context, w scenario, d time.Duration) (window, error) {
	stop := make(chan struct{})
	samples := make(chan []float64, 1)
	go func() {
		var xs []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, ok := rssMB(); ok {
				xs = append(xs, mb)
			}
			select {
			case <-stop:
				samples <- xs
				return
			case <-t.C:
			}
		}
	}()
	win, err := w.measure(ctx, d)
	close(stop)
	win.rssMB = <-samples
	return win, err
}

// rssMB reads the process's resident set size.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

func printJSON(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil { // every printed type marshals by construction
		panic(err)
	}
	fmt.Fprintln(w, string(data))
}

// checkStatus compares a response status with the expected one.
func checkStatus(got, want int) error {
	if got != want {
		return fmt.Errorf("status %d, want %d", got, want)
	}
	return nil
}

// errDeadline wraps the run context's expiry with what was waiting.
func errDeadline(ctx context.Context, what string) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%s: run deadline exceeded", what)
	}
	return fmt.Errorf("%s: %w", what, ctx.Err())
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
