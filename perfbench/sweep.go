package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/workload"
)

// traceClass is one behaviour class the sweep samples from.
type traceClass struct {
	name  string
	pool  []string // catalogue names; suites adds whole suites
	suite []string
}

// sweepClasses cover the catalogue's behaviour classes. Streaming,
// mixed-spatial and irregular codes share the SPEC suites, so those pools
// are listed by name; the other classes are whole suites.
var sweepClasses = []traceClass{
	{name: "streaming", pool: []string{
		"bwaves-1963", "bwaves-677", "GemsFDTD-1169", "GemsFDTD-1211", "lbm-1274", "lbm-94",
		"leslie3d-134", "leslie3d-149", "libquantum-714", "zeusmp-300", "bwaves_s-891",
		"lbm_s-2676", "roms_s-294", "wrf_s-8065", "streamcluster-5",
	}},
	{name: "mixed-spatial", pool: []string{
		"cactusADM-1804", "milc-127", "soplex-66", "sphinx3-417", "wrf-196", "gcc-13",
		"cam4_s-490", "fotonik3d_s-1176", "fotonik3d_s-7084", "cactuBSSN_s-2421",
		"imagick_s-4872", "gcc_s-404", "facesim-2",
	}},
	{name: "irregular", pool: []string{
		"mcf-46", "omnetpp-188", "astar-23", "xalancbmk-148", "mcf_s-484", "mcf_s-1554",
		"omnetpp_s-141", "xz_s-2302", "deepsjeng_s-690", "canneal-1",
	}},
	{name: "graph", suite: []string{"ligra", "gap"}},
	{name: "cloud", suite: []string{"cloud"}},
	{name: "qmm", suite: []string{"qmm.srv", "qmm.clt"}},
}

func (c traceClass) names() []string {
	out := append([]string(nil), c.pool...)
	for _, s := range c.suite {
		for _, info := range workload.Suite(s) {
			out = append(out, info.Name)
		}
	}
	return out
}

// sampleTraces draws n traces from each class, seeded.
func sampleTraces(rnd *rand.Rand, n int) ([][]string, error) {
	out := make([][]string, len(sweepClasses))
	for i, c := range sweepClasses {
		pool := c.names()
		if len(pool) < n {
			return nil, fmt.Errorf("class %s has %d traces, want %d", c.name, len(pool), n)
		}
		for _, k := range rnd.Perm(len(pool))[:n] {
			if !workload.Exists(pool[k]) {
				return nil, fmt.Errorf("class %s: unknown trace %q", c.name, pool[k])
			}
			out[i] = append(out[i], pool[k])
		}
	}
	return out, nil
}

// sweep is a seeded figure-style batch through engine.RunAllContext on a
// fresh engine with an on-disk store: every sampled trace under no
// prefetcher and each evaluated prefetcher on one core, plus 4-core mixes
// under no prefetcher and Gaze. One operation is one simulation: the
// engine runs the batch on one worker, so an operation's latency is the
// time between its result and the one before it, and each batch is one
// interval of the end-to-end metrics.
type sweep struct {
	b      *bench
	jobs   []engine.Job
	traces []string
	// gaze pairs each single-core Gaze job with its baseline.
	gaze [][2]int
	hist *obs.HistogramVec

	mu     sync.Mutex
	totals engine.Counters
	cur    *engine.Engine

	batches    int
	diverged   int // known nondeterministic results unlike the first batch's
	first      []sim.Result
	digest     string
	violations []string
}

func newSweep(b *bench) *sweep {
	s := &sweep{b: b, hist: obs.NewHistogramVec("perfbench_engine_phase_seconds", "Engine phase latency.", "phase", obs.DefBuckets)}
	b.probe = newProbe(s.hist, s.counters)
	return s
}

func (s *sweep) counters() engine.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.totals
	if s.cur != nil {
		n := s.cur.Counters()
		c.Simulated += n.Simulated
		c.MemoHits += n.MemoHits
		c.StoreHits += n.StoreHits
	}
	return c
}

// plan builds the batch from the seed.
func (s *sweep) plan() error {
	rnd := rand.New(rand.NewPCG(s.b.cfg.seed, 0x5eed))
	classes, err := sampleTraces(rnd, s.b.cfg.perClass)
	if err != nil {
		return err
	}
	pfs := append([]string{"none"}, prefetchers.EvaluatedNames()...)
	s.jobs, s.traces, s.gaze = nil, nil, nil
	for _, cls := range classes {
		for _, tr := range cls {
			s.traces = append(s.traces, tr)
			base := len(s.jobs)
			for _, pf := range pfs {
				if pf == "Gaze" {
					s.gaze = append(s.gaze, [2]int{len(s.jobs), base})
				}
				s.jobs = append(s.jobs, engine.Job{Traces: []string{tr}, L1: []string{pf}})
			}
		}
	}
	// Two 4-core mixes, each one sampled trace from four distinct classes.
	for m := 0; m < 2; m++ {
		var mix []string
		for _, c := range rnd.Perm(len(classes))[:4] {
			mix = append(mix, classes[c][rnd.IntN(len(classes[c]))])
		}
		for _, pf := range []string{"none", "Gaze"} {
			s.jobs = append(s.jobs, engine.Job{Traces: mix, L1: []string{pf}})
		}
	}
	return nil
}

// setup plans the batch and materializes every sampled trace into the
// process-wide trace cache, as a long-lived process holds them.
func (s *sweep) setup(ctx context.Context, dir string) error {
	if err := s.plan(); err != nil {
		return err
	}
	workload.ResetTraceCache()
	for _, tr := range s.traces {
		if err := ctx.Err(); err != nil {
			return errDeadline(ctx, "materializing traces")
		}
		if _, _, err := workload.MaterializeRecordsCached(tr, engine.Quick.TraceLen); err != nil {
			return err
		}
	}
	return os.MkdirAll(dir, 0o755)
}

// measure runs whole batches until d has passed.
func (s *sweep) measure(ctx context.Context, d time.Duration) (window, error) {
	var w window
	start := time.Now()
	for len(w.rates) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return w, errDeadline(ctx, "sweep batch")
		}
		res, dt, rows, err := s.batch(ctx)
		if err != nil {
			return w, err
		}
		w.attempted += len(s.jobs)
		w.rates = append(w.rates, float64(len(s.jobs))/dt.Seconds())
		w.p50s = append(w.p50s, quantile(rows, 0.5))
		w.p90s = append(w.p90s, quantile(rows, 0.9))
		for _, r := range res {
			for _, c := range r.Cores {
				w.instr += c.Instructions
			}
		}
		s.verify(res)
	}
	w.elapsed = time.Since(start)
	return w, nil
}

// batch runs the sweep once on a fresh engine and store. Besides the
// results and the batch's wall time it returns, for every job, the
// milliseconds its simulation took: with one worker the jobs run one
// after another, so that is the time since the previous job's result.
func (s *sweep) batch(ctx context.Context) ([]sim.Result, time.Duration, []float64, error) {
	dir := filepath.Join(s.b.tmp, fmt.Sprintf("sweep-store-%d", s.batches))
	s.batches++
	defer os.RemoveAll(dir)
	start := time.Now()
	sp := s.b.spans.begin("engine.Open", 0)
	store, err := engine.Open(dir)
	sp.end(err == nil)
	if err != nil {
		return nil, 0, nil, err
	}
	eng := engine.New(engine.Options{
		Scale:             engine.Quick,
		Store:             store,
		Workers:           procs,
		Seed:              s.b.cfg.seed,
		Phases:            s.hist,
		TelemetryInterval: sim.DefaultTelemetryInterval,
	})
	s.mu.Lock()
	s.cur = eng
	s.mu.Unlock()
	sp = s.b.spans.begin("engine.RunAllContext", 0)
	var rows []float64 // progress calls are serialized
	var prev time.Duration
	res, err := eng.RunAllContext(ctx, s.jobs, func(p engine.Progress) {
		rows = append(rows, (p.Elapsed-prev).Seconds()*1e3)
		prev = p.Elapsed
	})
	sp.end(err == nil)
	dt := time.Since(start)
	s.mu.Lock()
	c := eng.Counters()
	s.totals.Simulated += c.Simulated
	s.totals.MemoHits += c.MemoHits
	s.totals.StoreHits += c.StoreHits
	s.cur = nil
	s.mu.Unlock()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("sweep batch: %w", err)
	}
	if c.Simulated != uint64(len(s.jobs)) {
		s.violations = append(s.violations, fmt.Sprintf("batch %d simulated %d of %d jobs on a fresh engine", s.batches, c.Simulated, len(s.jobs)))
	}
	return res, dt, rows, nil
}

// verify checks every result of the first batch, and that each later
// batch repeats it: exactly, in the digest, for deterministic jobs; known
// nondeterministic jobs that differ are counted.
func (s *sweep) verify(res []sim.Result) {
	d := newDigester()
	for i, r := range res {
		j := s.jobs[i]
		if s.first == nil {
			s.violations = append(s.violations, checkResult(j.String(), ran{job: j, res: r})...)
		}
		if deterministic(j) {
			d.add(j.String(), r)
		} else if s.first != nil && !reflect.DeepEqual(r, s.first[i]) {
			s.diverged++
		}
	}
	if s.first == nil {
		s.first, s.digest = res, d.String()
	} else if d.String() != s.digest {
		s.violations = append(s.violations, fmt.Sprintf("batch %d digest %s differs from the first batch's %s", s.batches, d, s.digest))
	}
}

func (s *sweep) finish(ctx context.Context) (outcome, error) {
	rs := make([]ran, len(s.first))
	for i, r := range s.first {
		rs[i] = ran{job: s.jobs[i], res: r}
	}
	layers := workCounts(rs)
	var speedups []float64
	for _, p := range s.gaze {
		speedups = append(speedups, engine.Speedup(s.first[p[0]], s.first[p[1]]))
	}
	layers["model.gaze_speedup_geomean"] = geomean(speedups)
	layers["sim.nondeterministic_results"] = float64(s.diverged)
	return outcome{digest: s.digest, layers: layers, violations: s.violations}, nil
}

func (s *sweep) teardown() error { return nil }
