package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/sim"
)

// ran is one simulated engine job and its result.
type ran struct {
	job engine.Job
	res sim.Result
}

// checkResult verifies the accounting identities of one result:
//
//   - hits + misses = accesses at L1D, L2C and LLC;
//   - late <= useful at L1D and L2C;
//   - a job with no prefetcher issues no prefetch and finds no useful one;
//   - useful <= issued at L1D and at L2C, up to a warm-up carry-over.
//     A prefetch fill sets the prefetch bit only in the level it was
//     issued for, and each useful prefetch consumes one bit there. The
//     statistics reset at the warm-up boundary while prefetched lines
//     stay resident, so after the reset a level can consume at most the
//     bits its prefetches set since then (issued) plus the bits still
//     set at the boundary, which cannot outnumber the level's lines.
//     Every slice of a sliced job has its own warm-up boundary.
//
// It also checks that every core ran its measured-instruction budget at
// a finite, positive IPC.
func checkResult(label string, r ran) (violations []string) {
	fail := func(format string, args ...any) {
		violations = append(violations, label+": "+fmt.Sprintf(format, args...))
	}
	j, res := r.job, r.res
	if len(res.Cores) != len(j.Traces) {
		fail("%d core results for %d traces", len(res.Cores), len(j.Traces))
		return violations
	}
	cfg := j.Overrides.Apply(sim.DefaultConfig(len(j.Traces)))
	slices := uint64(max(1, j.Overrides.SliceShards))
	l1Carry := slices * uint64(cfg.L1D.Sets*cfg.L1D.Ways)
	l2Carry := slices * uint64(cfg.L2C.Sets*cfg.L2C.Ways)
	none := noPrefetcher(j)
	_, budget := j.Overrides.EffectiveBudgets(engine.Quick)
	for i, c := range res.Cores {
		for _, lv := range []struct {
			name          string
			a, h, m, u, l uint64
		}{
			{"L1D", c.L1D.DemandAccesses, c.L1D.DemandHits, c.L1D.DemandMisses, c.L1D.UsefulPrefetches, c.L1D.LatePrefetches},
			{"L2C", c.L2C.DemandAccesses, c.L2C.DemandHits, c.L2C.DemandMisses, c.L2C.UsefulPrefetches, c.L2C.LatePrefetches},
		} {
			if lv.h+lv.m != lv.a {
				fail("core %d %s hits %d + misses %d != accesses %d", i, lv.name, lv.h, lv.m, lv.a)
			}
			if lv.l > lv.u {
				fail("core %d %s late %d > useful %d", i, lv.name, lv.l, lv.u)
			}
		}
		if none && c.PrefetchesIssuedL1+c.PrefetchesIssuedL2+c.L1D.UsefulPrefetches+c.L2C.UsefulPrefetches > 0 {
			fail("core %d without a prefetcher issued %d+%d and found %d+%d useful", i,
				c.PrefetchesIssuedL1, c.PrefetchesIssuedL2, c.L1D.UsefulPrefetches, c.L2C.UsefulPrefetches)
		}
		if c.L1D.UsefulPrefetches > c.PrefetchesIssuedL1+l1Carry {
			fail("core %d L1D useful %d > issued %d + %d resident lines", i, c.L1D.UsefulPrefetches, c.PrefetchesIssuedL1, l1Carry)
		}
		if c.L2C.UsefulPrefetches > c.PrefetchesIssuedL2+l2Carry {
			fail("core %d L2C useful %d > issued %d + %d resident lines", i, c.L2C.UsefulPrefetches, c.PrefetchesIssuedL2, l2Carry)
		}
		if c.Instructions < budget {
			fail("core %d measured %d instructions, budget %d", i, c.Instructions, budget)
		}
		if !(c.IPC > 0) || math.IsInf(c.IPC, 0) {
			fail("core %d IPC %v", i, c.IPC)
		}
	}
	if res.LLC.DemandHits+res.LLC.DemandMisses != res.LLC.DemandAccesses {
		fail("LLC hits %d + misses %d != accesses %d", res.LLC.DemandHits, res.LLC.DemandMisses, res.LLC.DemandAccesses)
	}
	return violations
}

// digester hashes simulated statistics in a fixed order: the digest of
// a workload is identical on every repetition and in plain and traced
// runs, so two commits can compare it exactly.
type digester struct{ h [32]byte }

func newDigester() *digester { return &digester{} }

// add folds one labelled result into the digest. encoding/json prints
// floats in their shortest round-trip form, so equal bits give equal
// bytes.
func (d *digester) add(label string, res sim.Result) {
	data, err := json.Marshal(res)
	if err != nil { // sim.Result is plain numbers
		panic(err)
	}
	h := sha256.New()
	h.Write(d.h[:])
	h.Write([]byte(label))
	h.Write([]byte{0})
	h.Write(data)
	copy(d.h[:], h.Sum(nil))
}

func (d *digester) String() string { return hex.EncodeToString(d.h[:]) }

// workCounts derives the simulated work counts from a set of results.
// They are a pure function of the results, so they repeat exactly.
func workCounts(rs []ran) map[string]float64 {
	var instr, l1a, l1m, l2a, l2m, llca, llcm, issued, useful, late, drops, redundant, dramReq uint64
	var rowHits float64
	carried := 0
	for _, r := range rs {
		res := r.res
		for _, c := range res.Cores {
			instr += c.Instructions
			l1a += c.L1D.DemandAccesses
			l1m += c.L1D.DemandMisses
			l2a += c.L2C.DemandAccesses
			l2m += c.L2C.DemandMisses
			issued += c.PrefetchesIssuedL1 + c.PrefetchesIssuedL2
			useful += c.L1D.UsefulPrefetches + c.L2C.UsefulPrefetches
			late += c.L1D.LatePrefetches + c.L2C.LatePrefetches
			drops += c.PQDropsFull + c.PQDropsDup
			redundant += c.PrefetchesRedundant
			if c.L1D.UsefulPrefetches+c.L2C.UsefulPrefetches > c.PrefetchesIssuedL1+c.PrefetchesIssuedL2 {
				carried++
			}
		}
		llca += res.LLC.DemandAccesses
		llcm += res.LLC.DemandMisses
		dramReq += res.DRAMRequests
		rowHits += res.DRAMRowHitRate * float64(res.DRAMRequests)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out := map[string]float64{
		"sim.instructions":        float64(instr),
		"cache.l1d_accesses":      float64(l1a),
		"cache.l1d_miss_ratio":    ratio(l1m, l1a),
		"cache.l2c_miss_ratio":    ratio(l2m, l2a),
		"cache.llc_miss_ratio":    ratio(llcm, llca),
		"prefetch.issued":         float64(issued),
		"prefetch.accuracy":       ratio(useful, issued),
		"prefetch.late_ratio":     ratio(late, useful),
		"prefetch.pq_drop_ratio":  ratio(drops, drops+issued+redundant),
		"prefetch.carryover_jobs": float64(carried),
		"dram.requests":           float64(dramReq),
	}
	if dramReq > 0 {
		out["dram.row_hit_rate"] = rowHits / float64(dramReq)
	}
	return out
}

// geomean is the geometric mean of positive xs (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// knownNondeterministic names the prefetchers whose results currently
// differ between identical runs, with the cause. Their jobs still run
// and are checked for the accounting identities, but they are left out
// of the digest and reported as known defects in every report. A result
// that differs for any other job fails the run.
var knownNondeterministic = map[string]string{
	"SPP-PPF": "SPPPPF.rememberIssue evicts an arbitrary entry of a Go map once it holds 512, and Go randomizes map iteration order",
}

// noPrefetcher reports whether a job runs without any prefetcher.
func noPrefetcher(j engine.Job) bool {
	for _, names := range [][]string{j.L1, j.L2} {
		for _, n := range names {
			if n != "" && n != "none" {
				return false
			}
		}
	}
	return true
}

// deterministic reports whether a job's result should repeat exactly.
func deterministic(j engine.Job) bool {
	for _, names := range [][]string{j.L1, j.L2} {
		for _, n := range names {
			if _, ok := knownNondeterministic[n]; ok {
				return false
			}
		}
	}
	return true
}

// knownDefects describes the known nondeterminism for a report.
func knownDefects() []string {
	var out []string
	for _, name := range sortedKeys(knownNondeterministic) {
		out = append(out, name+" results are excluded from the digest: "+knownNondeterministic[name])
	}
	return out
}
