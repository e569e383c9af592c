package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// spans records the benchmark's own spans around each public call it
// makes: HTTP requests by route, engine.Open, engine.RunAllContext and
// trace uploads. They stay in memory and are written out when the run
// ends. Recording is off outside traced set-ups and quarters, and a nil
// *active makes every call a no-op.
type spans struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	next  uint64
	list  []span
}

type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	OK      bool   `json:"ok"`
}

type active struct {
	s     *spans
	sp    span
	start time.Time
}

func (s *spans) enable(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if on && s.epoch.IsZero() {
		s.epoch = time.Now()
	}
	s.on = on
}

// begin opens a span under parent (0 = root); it returns nil when
// recording is off.
func (s *spans) begin(name string, parent uint64) *active {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.on {
		return nil
	}
	s.next++
	now := time.Now()
	return &active{s: s, start: now, sp: span{ID: s.next, Parent: parent, Name: name, StartNS: now.Sub(s.epoch).Nanoseconds()}}
}

func (a *active) id() uint64 {
	if a == nil {
		return 0
	}
	return a.sp.ID
}

func (a *active) end(ok bool) {
	if a == nil {
		return
	}
	a.sp.DurNS = time.Since(a.start).Nanoseconds()
	a.sp.OK = ok
	a.s.mu.Lock()
	a.s.list = append(a.s.list, a.sp)
	a.s.mu.Unlock()
}

// route maps a client-observed span name to its per-layer metric.
type route struct{ metric, span string }

var routes = []route{
	{"server.post_jobs_ms", "POST /jobs"},
	{"server.job_result_ms", "GET /jobs/{id}/result"},
	{"server.job_get_ms", "GET /jobs/{id}"},
	{"server.simulate_hit_ms", "POST /simulate"},
	{"server.stats_ms", "GET /stats"},
	{"server.metrics_ms", "GET /metrics"},
	{"server.analytics_matrix_304_ms", "GET /analytics/matrix 304"},
	{"server.analytics_speedup_ms", "GET /analytics/speedup"},
	{"server.timeline_json_ms", "GET /results/{addr}/timeline json"},
	{"server.timeline_csv_ms", "GET /results/{addr}/timeline csv"},
}

// layers reports the median duration of every route's successful spans,
// and of trace uploads.
func (s *spans) layers() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	by := map[string][]float64{}
	for _, sp := range s.list {
		if sp.OK {
			by[sp.Name] = append(by[sp.Name], float64(sp.DurNS)/1e6)
		}
	}
	out := map[string]float64{}
	for _, r := range routes {
		out[r.metric] = summarize(by[r.span]).Value
	}
	out["traceset.upload_ms"] = summarize(by["POST /traces"]).Value
	return out
}

func (s *spans) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for _, sp := range s.list {
		out[sp.Name]++
	}
	return out
}

func (s *spans) writeNDJSON(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// enginePhases are the engine.Options.Phases labels reported per layer.
var enginePhases = []string{"queue_wait", "materialize", "simulate", "slice", "merge", "store_commit"}

// probe reads the engine-side layers over a traced run's window: phase
// histograms, engine counters and the trace cache, as deltas from mark.
type probe struct {
	hist     *obs.HistogramVec
	counters func() engine.Counters

	phases0   map[string][2]float64
	counters0 engine.Counters
	cache0    workload.CacheStats
}

// newProbe reads phase durations from hist and result-source counts from
// counters.
func newProbe(hist *obs.HistogramVec, counters func() engine.Counters) *probe {
	return &probe{hist: hist, counters: counters}
}

func (p *probe) mark() {
	p.phases0 = readPhases(p.hist)
	p.counters0 = p.counters()
	p.cache0 = workload.TraceCacheStats()
}

func (p *probe) layers() map[string]float64 {
	out := map[string]float64{}
	now := readPhases(p.hist)
	for _, ph := range enginePhases {
		sum, n := now[ph][0]-p.phases0[ph][0], now[ph][1]-p.phases0[ph][1]
		out["engine."+ph+"_calls"] = n
		if n > 0 {
			out["engine."+ph+"_ms"] = sum / n * 1e3
		}
	}
	c := p.counters()
	out["engine.simulated"] = float64(c.Simulated - p.counters0.Simulated)
	out["engine.memo_hits"] = float64(c.MemoHits - p.counters0.MemoHits)
	out["engine.store_hits"] = float64(c.StoreHits - p.counters0.StoreHits)
	tc := workload.TraceCacheStats()
	hits, misses := tc.Hits-p.cache0.Hits, tc.Misses-p.cache0.Misses
	if hits+misses > 0 {
		out["workload.trace_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return out
}

// readPhases parses the phase histogram's exposition into per-phase
// [sum seconds, count].
func readPhases(h *obs.HistogramVec) map[string][2]float64 {
	var buf bytes.Buffer
	h.WriteProm(&buf)
	out := map[string][2]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		_, labels, ok := strings.Cut(name, `{phase="`)
		if !ok {
			continue
		}
		phase, _, _ := strings.Cut(labels, `"`)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		cur := out[phase]
		switch {
		case strings.Contains(name, "_sum{"):
			cur[0] = v
		case strings.Contains(name, "_count{"):
			cur[1] = v
		}
		out[phase] = cur
	}
	return out
}

// rollupProfile sums the flat CPU time of the profile at path per
// package, as `go tool pprof -top` lists it. The profile is symbolized
// when written, so pprof needs neither the binary nor the network.
func rollupProfile(ctx context.Context, path string) (rollup, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return rollup{}, fmt.Errorf("CPU rollup needs the go command: %w", err)
	}
	cmd := exec.CommandContext(ctx, goBin, "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-symbolize=none", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path), "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return rollup{}, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTop(out)
}

// rollup is flat CPU milliseconds per package.
type rollup struct {
	totalMS float64
	pkgMS   map[string]float64
}

// parseTop reads `pprof -top -unit=ms` rows: flat flat% sum% cum cum% name.
func parseTop(out []byte) (rollup, error) {
	r := rollup{pkgMS: map[string]float64{}}
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inRows = true
			continue
		}
		if !inRows || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return rollup{}, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		r.totalMS += ms
		r.pkgMS[pkgOf(strings.Join(f[5:], " "))] += ms
	}
	if !inRows {
		return rollup{}, fmt.Errorf("pprof printed no rows: %s", out)
	}
	return r, nil
}

// pkgOf names a symbol's package: the repo's internal packages by their
// short name, every runtime package as "runtime".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments hold other paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return strings.TrimPrefix(pkg, "repro/internal/")
}

// perInstr reports host ns per simulated instruction for each simulator
// package and the runtime (0 when nothing was simulated).
func (r rollup) perInstr(instr uint64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range append(append([]string(nil), simPackages...), "runtime") {
		if instr > 0 {
			out[p+".ns_per_instr"] = r.pkgMS[p] * 1e6 / float64(instr)
		}
	}
	return out
}

// simShare is the share of CPU samples that fall in simulator packages.
func (r rollup) simShare() float64 {
	if r.totalMS == 0 {
		return 0
	}
	var ms float64
	for _, p := range simPackages {
		ms += r.pkgMS[p]
	}
	return ms / r.totalMS
}
