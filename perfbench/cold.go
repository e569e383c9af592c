package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/prefetchers"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// coldSources are the catalogue traces the uploaded synthetic traces are
// derived from, one or two per behaviour class. The seed shifts their
// addresses and PCs, so every seed uploads distinct traces whose spatial
// patterns and simulation cost match the source's.
var coldSources = []string{"lbm-1274", "leslie3d-134", "milc-127", "fotonik3d_s-1176", "mcf_s-484", "PageRank-61"}

// coldInterval is the interval the end-to-end metrics take medians over:
// long enough to hold about a hundred jobs.
const coldInterval = 3.0

// uploadRecords exceeds the Quick trace length, so each upload's
// effective slab is a full Quick trace and auto-slices.
const uploadRecords = 60_000

// coldOverrides are the Fig 16 override points a request may carry: the
// default system, six values on each of the paper's three axes (LLC
// size, L2 size, DRAM rate), and the LLC x DRAM and L2 x DRAM grids of
// those values. There are enough distinct requests that no run exhausts
// them.
func coldOverrides() []*engine.Overrides {
	llc := []float64{0.25, 0.5, 1, 4, 8, 16}
	l2 := []int{64, 128, 256, 1024, 2048, 4096}
	dram := []int{400, 800, 1600, 6400, 12800, 25600}
	out := []*engine.Overrides{nil}
	for i := range 6 {
		out = append(out, &engine.Overrides{LLCMBPerCore: llc[i]}, &engine.Overrides{L2KB: l2[i]}, &engine.Overrides{DRAMMTPS: dram[i]})
		for _, d := range dram {
			out = append(out, &engine.Overrides{LLCMBPerCore: llc[i], DRAMMTPS: d}, &engine.Overrides{L2KB: l2[i], DRAMMTPS: d})
		}
	}
	return out
}

// cold is the service-cold workload: clients submit distinct simulate
// jobs over uploaded traces and follow each to its result, so every
// request simulates (sliced, over mapped slabs) and writes the store,
// timeline and journal. One operation is one job, submit to result.
type cold struct {
	b       *bench
	uploads [][]byte

	svc   *service
	log   *ranLog
	names []string
	reqs  []server.SimulateRequest
	next  atomic.Int64

	mu         sync.Mutex
	done       map[int]server.SimulateResponse
	timings    map[string][]float64 // job phase -> ms since set-up
	violations []string
}

func newCold(b *bench) (*cold, error) {
	c := &cold{b: b, done: map[int]server.SimulateResponse{}}
	rnd := rand.New(rand.NewPCG(b.cfg.seed, 0xc01d))
	for _, src := range coldSources {
		recs, err := workload.Generate(src, uploadRecords)
		if err != nil {
			return nil, err
		}
		// Shift by whole 16 MiB regions and whole 4 KiB PC pages, which
		// keeps every page offset and region footprint intact.
		addrShift := (rnd.Uint64N(1<<16) + 1) << 24
		pcShift := (rnd.Uint64N(1<<12) + 1) << 12
		for i := range recs {
			recs[i].Addr += addrShift
			recs[i].PC += pcShift
		}
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, trace.FormatGZTR, recs); err != nil {
			return nil, err
		}
		c.uploads = append(c.uploads, buf.Bytes())
	}
	return c, nil
}

// setup wires the service on a fresh directory and uploads the traces.
func (c *cold) setup(ctx context.Context, dir string) error {
	c.log = newRanLog()
	svc, err := openService(ctx, c.b, dir, c.log)
	if err != nil {
		return err
	}
	c.svc = svc
	c.b.probe = newProbe(svc.metrics.EnginePhase, svc.eng.Counters)
	var names []string
	for _, data := range c.uploads {
		var m server.TraceUploadResponse
		if _, err := svc.client.expect(ctx, "POST /traces", 0, http.MethodPost, "/traces", data, http.StatusCreated, &m); err != nil {
			return err
		}
		names = append(names, m.Name)
	}
	if c.names == nil {
		c.names = names
		c.plan()
	} else if fmt.Sprint(names) != fmt.Sprint(c.names) {
		return fmt.Errorf("uploads named %v, earlier set-up %v", names, c.names)
	}
	c.next.Store(0)
	c.done = map[int]server.SimulateResponse{}
	c.timings = map[string][]float64{}
	return nil
}

// plan orders every trace x prefetcher x override request, seeded. Each
// request's speedup needs the no-prefetcher run of its trace at its
// override point, so the nine requests of one trace and point run back to
// back: the first simulates that baseline and the rest find it memoized.
// Round r runs every trace once, trace k at point r+k*stride, so any
// stretch of the run covers all traces alike and as many points as it
// runs groups, while over all rounds each trace meets each point once.
// A fully shuffled order let the baseline memo fill up over the run, so
// jobs sped up by half from the first interval to the last; and running
// one point at a time left each run's cost to the dozen points it
// happened to reach, which moved it by a tenth from seed to seed.
func (c *cold) plan() {
	rnd := rand.New(rand.NewPCG(c.b.cfg.seed, 0x0dd5))
	shuffle := func(xs []string) []string {
		xs = append([]string(nil), xs...)
		rnd.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	overrides := coldOverrides()
	rnd.Shuffle(len(overrides), func(i, j int) { overrides[i], overrides[j] = overrides[j], overrides[i] })
	traces := shuffle(c.names)
	stride := len(overrides) / len(traces)
	c.reqs = nil
	for r := range overrides {
		for k, tr := range traces {
			o := overrides[(r+k*stride)%len(overrides)]
			for _, pf := range shuffle(prefetchers.EvaluatedNames()) {
				c.reqs = append(c.reqs, server.SimulateRequest{Trace: tr, Prefetcher: pf, Overrides: o})
			}
		}
	}
}

func (c *cold) measure(ctx context.Context, d time.Duration) (window, error) {
	var (
		mu sync.Mutex
		w  window
		wg sync.WaitGroup
	)
	instr0 := c.log.instructions()
	start := time.Now()
	var done []completion
	for range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep going until the window has passed and every job the
			// digest covers has been issued.
			for time.Since(start) < d || c.next.Load() < int64(c.b.cfg.digestJobs) {
				if ctx.Err() != nil {
					return
				}
				i := int(c.next.Add(1) - 1)
				if i >= len(c.reqs) {
					return
				}
				t0 := time.Now()
				err := c.job(ctx, i)
				dt := time.Since(t0)
				mu.Lock()
				w.attempted++
				if err != nil {
					w.failed++
					c.fail(fmt.Sprintf("job %d: %v", i, err))
				} else {
					done = append(done, completion{at: time.Since(start).Seconds(), ms: dt.Seconds() * 1e3})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.instr = c.log.instructions() - instr0
	w.intervals(done, coldInterval)
	if err := ctx.Err(); err != nil {
		return w, errDeadline(ctx, "service-cold jobs")
	}
	if int(c.next.Load()) >= len(c.reqs) {
		c.fail(fmt.Sprintf("all %d distinct requests ran before the window ended", len(c.reqs)))
	}
	return w, nil
}

// job runs request i end to end and checks its result document against
// the engine result behind it.
func (c *cold) job(ctx context.Context, i int) error {
	parent := c.b.spans.begin("cold job", 0)
	var resp server.SimulateResponse
	st, err := c.svc.client.runJob(ctx, parent.id(), "simulate", c.reqs[i], &resp)
	parent.end(err == nil)
	if err != nil {
		return err
	}
	r, ok := c.log.get(resp.Address)
	switch {
	case !ok:
		return fmt.Errorf("result address %s was never executed", resp.Address)
	case resp.IPC != r.res.MeanIPC():
		return fmt.Errorf("result IPC %v, engine result %v", resp.IPC, r.res.MeanIPC())
	case !(resp.Speedup > 0):
		return fmt.Errorf("speedup %v", resp.Speedup)
	case r.job.Overrides.SliceShards != server.DefaultAutoSliceShards:
		return fmt.Errorf("job ran with slice_shards %d, want the auto-slice policy's %d", r.job.Overrides.SliceShards, server.DefaultAutoSliceShards)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[i] = resp
	if st.Timings != nil {
		for _, ph := range []string{"queue_wait", "execute", "finalize"} {
			c.timings[ph] = append(c.timings[ph], float64(st.Timings.Phases[ph]))
		}
	}
	return nil
}

func (c *cold) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, msg)
}

// finish digests the leading digestJobs requests — each one's result
// document and the engine result behind it — and checks every result
// the engine produced.
func (c *cold) finish(ctx context.Context) (outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := outcome{violations: limitViolations(c.violations, 20)}
	_, v := c.log.check()
	out.violations = append(out.violations, limitViolations(v, 20)...)
	d := newDigester()
	var covered []ran
	var gaze []float64
	for i := 0; i < c.b.cfg.digestJobs; i++ {
		resp, ok := c.done[i]
		if !ok {
			out.violations = append(out.violations, fmt.Sprintf("digest job %d did not complete", i))
			continue
		}
		r, _ := c.log.get(resp.Address)
		covered = append(covered, r)
		if deterministic(r.job) {
			d.add(fmt.Sprintf("%d %s speedup=%v", i, resp.Address, resp.Speedup), r.res)
		}
		if resp.Prefetcher == "Gaze" {
			gaze = append(gaze, resp.Speedup)
		}
	}
	out.digest = d.String()
	out.layers = workCounts(covered)
	out.layers["model.gaze_speedup_geomean"] = geomean(gaze)
	for ph, ms := range c.timings {
		out.layers["jobs."+ph+"_ms"] = mean(ms)
	}
	return out, nil
}

func (c *cold) teardown() error {
	if c.svc == nil {
		return nil
	}
	err := c.svc.close()
	c.svc = nil
	return err
}
