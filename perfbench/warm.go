package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/prefetchers"
	"repro/internal/server"
)

// warmReads are the kinds of read in the service-warm mix. Each request
// picks one uniformly: no documented client pattern weights them, so
// every read gets the same share.
var warmReads = []string{
	"matrix-304", "speedup", "timeline-json", "timeline-csv",
	"simulate", "job", "stats", "metrics",
}

// warm is the service-warm workload: set-up simulates a grid through the
// jobs API, then restarts the service — a fresh engine and jobs manager
// on the same store and journal — and clients send an equal-weight mix of
// reads that the simulator never serves. One operation is one request.
type warm struct {
	b      *bench
	traces []string

	svc    *service
	digest string
	grid   []ran
	jobID  string
	query  string
	etag   string
	cells  []server.SimulateResponse
	paths  []string // timeline paths
	gaze   float64

	mu         sync.Mutex
	bodies     map[string][32]byte // first body hash per read
	violations []string
}

func newWarm(b *bench) (*warm, error) {
	rnd := rand.New(rand.NewPCG(b.cfg.seed, 0x3a53))
	classes, err := sampleTraces(rnd, 1)
	if err != nil {
		return nil, err
	}
	w := &warm{b: b}
	for _, cls := range classes {
		w.traces = append(w.traces, cls...)
	}
	w.query = "?" + url.Values{
		"traces":      {strings.Join(w.traces, ",")},
		"prefetchers": {strings.Join(prefetchers.EvaluatedNames(), ",")},
	}.Encode()
	return w, nil
}

func (w *warm) setup(ctx context.Context, dir string) error {
	// Run the grid as a background sweep job, then shut the service down.
	logA := newRanLog()
	a, err := openService(ctx, w.b, dir, logA)
	if err != nil {
		return err
	}
	var sweep server.SweepResponse
	st, err := a.client.runJob(ctx, 0, "sweep", server.SweepRequest{Traces: w.traces, Prefetchers: prefetchers.EvaluatedNames()}, &sweep)
	if err := errors.Join(err, a.close()); err != nil {
		return fmt.Errorf("grid: %w", err)
	}
	// Set-ups also run after the measured load, when no violation would
	// still reach the report, so a failed check fails the set-up.
	grid, v := logA.check()
	digest := logA.digest()
	if w.digest != "" && digest != w.digest {
		v = append(v, fmt.Sprintf("grid digest %s differs from an earlier set-up's %s", digest, w.digest))
	}
	if len(v) > 0 {
		return fmt.Errorf("grid: %s", strings.Join(limitViolations(v, 5), "; "))
	}
	w.digest, w.grid, w.jobID, w.cells = digest, grid, st.ID, sweep.Rows
	w.gaze = sweep.GeomeanSpeedup["Gaze"]

	// Restart on the same store and journal.
	b, err := openService(ctx, w.b, dir, newRanLog())
	if err != nil {
		return err
	}
	w.svc = b
	w.b.probe = newProbe(b.metrics.EnginePhase, b.eng.Counters)
	for _, r := range grid {
		got, ok := b.eng.Lookup(r.job)
		if !ok || !reflect.DeepEqual(got, r.res) {
			return fmt.Errorf("restarted engine reads %s differently from the store", r.job)
		}
	}

	// Prime what the read mix revalidates against.
	var matrix server.MatrixResponse
	if _, err := b.client.expect(ctx, "GET /analytics/matrix", 0, http.MethodGet, "/analytics/matrix"+w.query, nil, http.StatusOK, &matrix); err != nil {
		return err
	}
	if matrix.CellsComplete != matrix.CellsTotal || matrix.CellsTotal != len(w.cells) {
		return fmt.Errorf("matrix has %d of %d cells complete, grid ran %d", matrix.CellsComplete, matrix.CellsTotal, len(w.cells))
	}
	w.etag = matrix.ETag
	var job server.JobStatus
	if _, err := b.client.expect(ctx, "GET /jobs/{id}", 0, http.MethodGet, "/jobs/"+w.jobID, nil, http.StatusOK, &job); err != nil {
		return err
	}
	if job.State != string(jobs.Succeeded) || len(job.Timelines) == 0 {
		return fmt.Errorf("recovered job %s is %s with %d timelines", w.jobID, job.State, len(job.Timelines))
	}
	w.paths = job.Timelines
	w.bodies = map[string][32]byte{}
	return nil
}

func (w *warm) measure(ctx context.Context, d time.Duration) (window, error) {
	var (
		mu   sync.Mutex
		win  window
		wg   sync.WaitGroup
		done []completion
	)
	start := time.Now()
	for k := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewPCG(w.b.cfg.seed, uint64(k)))
			for time.Since(start) < d && ctx.Err() == nil {
				op := warmReads[rnd.IntN(len(warmReads))]
				dur, err := w.read(ctx, op, rnd)
				mu.Lock()
				win.attempted++
				if err != nil {
					win.failed++
					w.fail(fmt.Sprintf("%s: %v", op, err))
				} else {
					done = append(done, completion{at: time.Since(start).Seconds(), ms: dur.Seconds() * 1e3})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	win.intervals(done, 1)
	if err := ctx.Err(); err != nil {
		return win, errDeadline(ctx, "service-warm reads")
	}
	return win, nil
}

// read sends one request of the mix, checks the reply and returns the
// request's latency.
func (w *warm) read(ctx context.Context, op string, rnd *rand.Rand) (time.Duration, error) {
	c := w.svc.client
	switch op {
	case "matrix-304":
		r, err := c.do(ctx, "GET /analytics/matrix 304", 0, http.MethodGet, "/analytics/matrix"+w.query, nil,
			http.Header{"If-None-Match": {w.etag}})
		if err != nil {
			return 0, err
		}
		return r.dur, checkStatus(r.status, http.StatusNotModified)
	case "speedup":
		r, err := c.expect(ctx, "GET /analytics/speedup", 0, http.MethodGet, "/analytics/speedup"+w.query, nil, http.StatusOK, nil)
		if err != nil {
			return 0, err
		}
		return r.dur, w.sameBody("speedup", r.body)
	case "timeline-json", "timeline-csv":
		path := w.paths[rnd.IntN(len(w.paths))]
		route, key := "GET /results/{addr}/timeline json", path
		if op == "timeline-csv" {
			route, path, key = "GET /results/{addr}/timeline csv", path+"?format=csv", path+" csv"
		}
		r, err := c.expect(ctx, route, 0, http.MethodGet, path, nil, http.StatusOK, nil)
		if err != nil {
			return 0, err
		}
		return r.dur, w.sameBody(key, r.body)
	case "simulate":
		cell := w.cells[rnd.IntN(len(w.cells))]
		body, err := json.Marshal(server.SimulateRequest{Trace: cell.Traces[0], Prefetcher: cell.Prefetcher})
		if err != nil {
			return 0, err
		}
		var got server.SimulateResponse
		r, err := c.expect(ctx, "POST /simulate", 0, http.MethodPost, "/simulate", body, http.StatusOK, &got)
		if err != nil {
			return 0, err
		}
		if got.Address != cell.Address || got.IPC != cell.IPC || got.Speedup != cell.Speedup {
			return r.dur, fmt.Errorf("simulate %s/%s answered %s ipc %v speedup %v, grid ran %s ipc %v speedup %v",
				cell.Traces[0], cell.Prefetcher, got.Address, got.IPC, got.Speedup, cell.Address, cell.IPC, cell.Speedup)
		}
		return r.dur, nil
	case "job":
		var st server.JobStatus
		r, err := c.expect(ctx, "GET /jobs/{id}", 0, http.MethodGet, "/jobs/"+w.jobID, nil, http.StatusOK, &st)
		if err != nil {
			return 0, err
		}
		if st.State != string(jobs.Succeeded) {
			return r.dur, fmt.Errorf("job %s is %s", w.jobID, st.State)
		}
		return r.dur, nil
	case "stats":
		var st server.StatsResponse
		r, err := c.expect(ctx, "GET /stats", 0, http.MethodGet, "/stats", nil, http.StatusOK, &st)
		if err != nil {
			return 0, err
		}
		if st.Counters.Simulated != 0 {
			return r.dur, fmt.Errorf("restarted engine simulated %d jobs", st.Counters.Simulated)
		}
		return r.dur, nil
	case "metrics":
		r, err := c.expect(ctx, "GET /metrics", 0, http.MethodGet, "/metrics", nil, http.StatusOK, nil)
		if err != nil {
			return 0, err
		}
		if !bytes.Contains(r.body, []byte("gaze_analytics_cache_hits_total")) {
			return r.dur, fmt.Errorf("/metrics lacks gaze_analytics_cache_hits_total")
		}
		return r.dur, nil
	}
	return 0, fmt.Errorf("unknown read %q", op)
}

// sameBody checks that a read returns the same bytes every time.
func (w *warm) sameBody(key string, body []byte) error {
	h := sha256.Sum256(body)
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.bodies[key]; !ok {
		w.bodies[key] = h
	} else if first != h {
		return fmt.Errorf("%s changed between reads", key)
	}
	return nil
}

func (w *warm) fail(msg string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.violations = append(w.violations, msg)
}

func (w *warm) finish(ctx context.Context) (outcome, error) {
	out := outcome{digest: w.digest, layers: workCounts(w.grid)}
	out.layers["model.gaze_speedup_geomean"] = w.gaze
	// The analytics document cache's hit ratio since the restart.
	r, err := w.svc.client.expect(ctx, "GET /metrics", 0, http.MethodGet, "/metrics", nil, http.StatusOK, nil)
	if err != nil {
		return out, err
	}
	hits, misses := promValue(r.body, "gaze_analytics_cache_hits_total"), promValue(r.body, "gaze_analytics_cache_misses_total")
	if hits+misses > 0 {
		out.layers["server.analytics_cache_hit_ratio"] = hits / (hits + misses)
	}
	w.mu.Lock()
	out.violations = limitViolations(w.violations, 20)
	w.mu.Unlock()
	return out, nil
}

// promValue reads one unlabelled sample from a Prometheus exposition.
func promValue(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			fmt.Sscan(v, &f) //nolint:errcheck // a malformed sample reads 0
			return f
		}
	}
	return 0
}

func (w *warm) teardown() error {
	if w.svc == nil {
		return nil
	}
	err := w.svc.close()
	w.svc = nil
	return err
}
