package main

import (
	"math"
	"sort"
)

// summary is one metric's reported value plus the spread of the samples
// behind it: their count, median and quartiles (Python's
// statistics.quantiles exclusive method, so figures match its output).
type summary struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reports the median of xs.
func summarize(xs []float64) summary {
	s := spread(xs)
	s.Value = s.Median
	return s
}

// single wraps a one-sample reading.
func single(v float64) summary { return summary{Value: v, N: 1, Median: v, Q1: v, Q3: v} }

// spread fills N, Median, Q1 and Q3.
func spread(xs []float64) summary {
	s := summary{N: len(xs)}
	switch len(xs) {
	case 0:
		return s
	case 1:
		s.Median, s.Q1, s.Q3 = xs[0], xs[0], xs[0]
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q1, s.Q3 = exclusiveQuartiles(sorted)
	return s
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// exclusiveQuartiles mirrors statistics.quantiles(xs, n=4) with the
// default exclusive method: the j-th cut point sits at position
// j*(n+1)/4 (1-based), clamped to the data.
func exclusiveQuartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	cut := func(j int) float64 {
		m := j * (n + 1)
		k := m / 4
		frac := float64(m%4) / 4
		switch {
		case k < 1:
			return sorted[0]
		case k >= n:
			return sorted[n-1]
		}
		return sorted[k-1] + frac*(sorted[k]-sorted[k-1])
	}
	return cut(1), cut(3)
}
