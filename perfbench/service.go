package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traceset"
	"repro/internal/workload"
)

// Service wiring constants. Everything else is gazeserve's default.
const (
	// autoSliceRecords is the auto-slice threshold. gazeserve's default
	// (2M records) exceeds the Quick trace length, so no Quick job would
	// slice; this threshold slices every uploaded trace.
	autoSliceRecords = 40_000
	traceCacheBudget = 2048 << 20 // gazeserve -trace-cache-mb default
	jobsQueueDepth   = 64
	gcAge            = 14 * 24 * time.Hour
	tracerRing       = 512

	requestTimeout = 30 * time.Second
	jobTimeout     = 60 * time.Second
)

// ranLog captures every engine job the jobs manager executes, through
// the public jobs.Options.Execute seam, so results returned over HTTP
// can be checked against the full sim.Result behind them.
type ranLog struct {
	mu     sync.Mutex
	byAddr map[string]ran
	instr  uint64 // measured instructions of freshly simulated jobs
}

func newRanLog() *ranLog { return &ranLog{byAddr: map[string]ran{}} }

// executor runs a plan on the local engine exactly as the default
// executor does, recording each job's result and whether it simulated.
func (l *ranLog) executor(eng *engine.Engine) jobs.Executor {
	return func(ctx context.Context, js []engine.Job, progress func(engine.Progress)) ([]sim.Result, error) {
		var mu sync.Mutex
		cached := map[string]bool{}
		res, err := eng.RunAllContext(ctx, js, func(p engine.Progress) {
			mu.Lock()
			cached[p.Address] = p.Cached
			mu.Unlock()
			if progress != nil {
				progress(p)
			}
		})
		scale := eng.Scale()
		l.mu.Lock()
		defer l.mu.Unlock()
		for i, j := range js {
			if len(res[i].Cores) == 0 {
				continue // skipped by cancellation
			}
			addr := j.ContentAddress(scale)
			if c, ok := cached[addr]; ok && !c {
				for _, core := range res[i].Cores {
					l.instr += core.Instructions
				}
			}
			l.byAddr[addr] = ran{job: j, res: res[i]}
		}
		return res, err
	}
}

func (l *ranLog) get(addr string) (ran, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.byAddr[addr]
	return r, ok
}

func (l *ranLog) instructions() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.instr
}

// check verifies every captured result and returns them by address.
func (l *ranLog) check() (all []ran, violations []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, addr := range sortedKeys(l.byAddr) {
		r := l.byAddr[addr]
		v := checkResult(addr[:12]+" "+r.job.String(), r)
		violations = append(violations, v...)
		all = append(all, r)
	}
	return all, violations
}

// digest hashes every captured deterministic result in address order.
func (l *ranLog) digest() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := newDigester()
	for _, addr := range sortedKeys(l.byAddr) {
		if r := l.byAddr[addr]; deterministic(r.job) {
			d.add(addr, r.res)
		}
	}
	return d.String()
}

// service is the HTTP service wired as cmd/gazeserve wires it — result
// store, job journal, trace registry, auto-slice policy, metrics
// histograms, tracer and request log — served in-process on loopback.
type service struct {
	metrics *obs.Metrics
	eng     *engine.Engine
	mgr     *jobs.Manager
	srv     *http.Server
	served  chan error
	client  *client
}

// openService starts a service over the store and its sibling journal
// and registry under dir. Like a fresh process, it starts with no
// registered trace sources and an empty trace cache.
func openService(ctx context.Context, b *bench, dir string, log *ranLog) (*service, error) {
	workload.ResetSources()
	workload.ResetTraceCache()
	workload.SetTraceCacheBudget(traceCacheBudget)
	metrics := obs.NewMetrics()

	sp := b.spans.begin("engine.Open", 0)
	store, err := engine.Open(filepath.Join(dir, "store"))
	sp.end(err == nil)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{
		Scale:             engine.Quick,
		Store:             store,
		Workers:           procs,
		Phases:            metrics.EnginePhase,
		TelemetryInterval: sim.DefaultTelemetryInterval,
	})
	reg, err := traceset.Open(store.Dir()+".traces", traceset.Options{})
	if err != nil {
		return nil, err
	}
	workload.RegisterSource(reg)
	policy := &server.SlicePolicy{
		MinRecords: autoSliceRecords,
		Shards:     server.DefaultAutoSliceShards,
		Records: func(addr string) (int, bool) {
			m, ok := reg.Get(addr)
			return m.Records, ok
		},
	}
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: tracerRing})
	mgr, err := jobs.Open(jobs.Options{
		Engine:     eng,
		Compile:    server.CompilerWithPolicy(eng, policy),
		Dir:        store.Dir() + ".jobs",
		Workers:    procs,
		QueueDepth: jobsQueueDepth,
		Tracer:     tracer,
		QueueWait:  metrics.JobQueueWait,
		Execute:    log.executor(eng),
	})
	if err != nil {
		return nil, err
	}
	// The request log formats one line per request as in production,
	// into a discarding writer so the benchmark's output stays clean.
	h := server.New(eng).AttachJobs(mgr).SetSlicePolicy(policy).
		SetMetrics(metrics).SetRequestLogger(obs.NewLogger(io.Discard, "text")).
		AttachTracer(tracer).AttachTraces(reg).SetGCAge(gcAge)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown(ctx) //nolint:errcheck // already failing
		return nil, err
	}
	s := &service{
		metrics: metrics,
		eng:     eng,
		mgr:     mgr,
		srv:     &http.Server{Handler: h.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1),
		client:  newClient(b, "http://"+ln.Addr().String()),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close drains in-flight requests and jobs, flushes the journal and
// waits for the listener goroutine to exit.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if e := <-s.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	s.client.hc.CloseIdleConnections()
	return errors.Join(err, s.mgr.Shutdown(ctx))
}

// client is the closed-loop HTTP client. Every request carries a
// deadline and is recorded as a span named by its route.
type client struct {
	b    *bench
	hc   *http.Client
	base string
}

func newClient(b *bench, base string) *client {
	return &client{
		b: b,
		// Loopback only: no proxy from the environment.
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
		base: base,
	}
}

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	dur    time.Duration
}

// do sends one request and reads the whole response. route names the
// span; parent links it to an enclosing span.
func (c *client) do(ctx context.Context, route string, parent uint64, method, path string, body []byte, hdr http.Header) (reply, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := c.b.spans.begin(route, parent)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.end(false)
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: data, dur: time.Since(start)}
	sp.end(err == nil && resp.StatusCode < 400)
	if err != nil {
		return r, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return r, nil
}

// expect sends a request and decodes a JSON reply with the wanted status
// into out (when out is non-nil).
func (c *client) expect(ctx context.Context, route string, parent uint64, method, path string, body []byte, want int, out any) (reply, error) {
	r, err := c.do(ctx, route, parent, method, path, body, nil)
	if err != nil {
		return r, err
	}
	if err := checkStatus(r.status, want); err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", method, path, err, bytes.TrimSpace(r.body))
	}
	if out != nil {
		if err := json.Unmarshal(r.body, out); err != nil {
			return r, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return r, nil
}

// follow streams GET /jobs/{id}/events until the terminal snapshot and
// returns it.
func (c *client) follow(ctx context.Context, parent uint64, id string) (server.JobStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	path := "/jobs/" + id + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	sp := c.b.spans.begin("GET /jobs/{id}/events", parent)
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.end(false)
		return server.JobStatus{}, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp.StatusCode, http.StatusOK); err != nil {
		sp.end(false)
		return server.JobStatus{}, fmt.Errorf("GET %s: %w", path, err)
	}
	var last server.JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			sp.end(false)
			return last, fmt.Errorf("GET %s: decoding event: %w", path, err)
		}
		if jobs.State(last.State).Terminal() {
			sp.end(true)
			return last, nil
		}
	}
	sp.end(false)
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("GET %s: %w", path, err)
	}
	return last, fmt.Errorf("GET %s: stream ended in state %q", path, last.State)
}

// runJob submits a job, follows it to its terminal state and fetches its
// result document into out.
func (c *client) runJob(ctx context.Context, parent uint64, typ string, request any, out any) (server.JobStatus, error) {
	raw, err := json.Marshal(request)
	if err != nil {
		return server.JobStatus{}, err
	}
	body, err := json.Marshal(server.JobSubmitRequest{Type: typ, Request: raw})
	if err != nil {
		return server.JobStatus{}, err
	}
	var st server.JobStatus
	if _, err := c.expect(ctx, "POST /jobs", parent, http.MethodPost, "/jobs", body, http.StatusAccepted, &st); err != nil {
		return st, err
	}
	if st, err = c.follow(ctx, parent, st.ID); err != nil {
		return st, err
	}
	if st.State != string(jobs.Succeeded) {
		return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	_, err = c.expect(ctx, "GET /jobs/{id}/result", parent, http.MethodGet, "/jobs/"+st.ID+"/result", nil, http.StatusOK, out)
	return st, err
}

// limitViolations keeps a failure list readable.
func limitViolations(v []string, n int) []string {
	if len(v) <= n {
		return v
	}
	return append(v[:n:n], fmt.Sprintf("... and %d more", len(v)-n))
}

// mean is the arithmetic mean (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
