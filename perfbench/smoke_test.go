package main

import (
	"context"
	"math"
	"runtime/debug"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end at a tiny size, plain and
// traced, through the correctness gate, so the benchmark cannot rot
// silently. Run it with `go test` from this directory.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"sweep", "service-cold", "service-warm"} {
		t.Run(wl, func(t *testing.T) {
			digests := map[bool]string{}
			for _, traced := range []bool{false, true} {
				cfg := defaultConfig()
				cfg.workload, cfg.seed, cfg.trace = wl, 7, traced
				cfg.window = 300 * time.Millisecond
				cfg.setupReps, cfg.setupBudget, cfg.perClass, cfg.digestJobs = 2, 0, 1, 4
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				rep, res, err := run(ctx, cfg, t.TempDir())
				cancel()
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d violations=%v",
						traced, res.Correct, res.Attempted, res.Failed, rep.Violations)
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
					}
					if !traced && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				digests[traced] = rep.Digest
			}
			if digests[false] == "" || digests[false] != digests[true] {
				t.Errorf("plain digest %q, traced digest %q", digests[false], digests[true])
			}
		})
	}
}

func TestLayersDiscriminate(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own CPU cost swamps the per-package shares")
	}
	share := map[string]float64{}
	for _, wl := range []string{"sweep", "service-warm"} {
		cfg := defaultConfig()
		cfg.workload, cfg.seed, cfg.trace = wl, 3, true
		cfg.window = time.Second
		cfg.setupReps, cfg.setupBudget, cfg.perClass = 1, 0, 1
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		_, res, err := run(ctx, cfg, t.TempDir())
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		share[wl] = res.Metrics["profile.sim_cpu_share"].Value
	}
	if share["sweep"] < 0.5 || share["service-warm"] > 0.1 {
		t.Errorf("simulator CPU share: sweep %.2f (want most), service-warm %.2f (want almost none)",
			share["sweep"], share["service-warm"])
	}
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("spread = %+v", s)
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Showing nodes accounting for 300ms, 100% of 300ms total
      flat  flat%   sum%        cum   cum%
     150ms 50.00% 50.00%      150ms 50.00%  repro/internal/cache.(*Cache).Access
     100ms 33.33% 83.33%      100ms 33.33%  runtime.mallocgc
      30ms 10.00% 93.33%       30ms 10.00%  internal/runtime/maps.(*Map).Get
      20ms  6.67%   100%       20ms  6.67%  sort.Slice[go.shape.struct { repro/internal/sim.x int }]
`)
	r, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if r.totalMS != 300 || r.pkgMS["cache"] != 150 || r.pkgMS["runtime"] != 130 || r.pkgMS["sort"] != 20 {
		t.Errorf("rollup = %+v", r)
	}
	if got := r.perInstr(1e6)["cache.ns_per_instr"]; got != 150 {
		t.Errorf("cache.ns_per_instr = %v, want 150", got)
	}
}
