// Package stats provides the small statistical toolkit the simulator and the
// experiment harness rely on: online mean/variance accumulation, percentiles,
// share fairness (Jain's index), and the windowed min/max filters that BBR
// uses for its bandwidth and RTT estimates (a port of the Linux kernel's
// lib/minmax).
package stats

import (
	"math"
	"sort"
)

// Online accumulates a running mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Online struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of samples added.
func (o *Online) N() int64 { return o.n }

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Stddev returns the sample standard deviation.
func (o *Online) Stddev() float64 { return math.Sqrt(o.Var()) }

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (o *Online) CI95() float64 {
	if o.n < 2 {
		return 0
	}
	return 1.96 * o.Stddev() / math.Sqrt(float64(o.n))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
// The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CombinedCI95 returns the 95% CI half-width of a difference of two
// independent means whose own CI half-widths are a and b (root sum of
// squares). The regression differ uses it as the noise floor below which a
// delta between two runs is not evidence of a real change.
func CombinedCI95(a, b float64) float64 { return math.Sqrt(a*a + b*b) }

// SignificantDelta reports whether the move from a to b clears both the
// noise floor (the combined CI of the two means) and a relative threshold
// rel of the baseline magnitude. With zero CIs (single-seed runs) only the
// relative threshold applies.
func SignificantDelta(a, b, ciA, ciB, rel float64) bool {
	d := math.Abs(b - a)
	if d <= CombinedCI95(ciA, ciB) {
		return false
	}
	return d > rel*math.Abs(a)
}

// JainIndex returns Jain's fairness index of the allocation xs:
// (Σx)² / (n·Σx²), in (0, 1]; 1 means perfectly equal shares, 1/n means one
// flow has everything. Returns 0 for an empty or all-zero allocation.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
