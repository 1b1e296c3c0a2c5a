// Package tuner searches for the optimal pacing stride — the §7.1.2
// question the paper leaves open: the best stride "will depend on at least
// the network conditions and the mobile device configuration". The tuner
// treats the simulator as the objective function: it hill-climbs over
// strides, scoring goodput with an optional RTT guard so the search
// does not wander into bufferbloat (which raw goodput would tolerate).
package tuner

import (
	"math"
	"sort"
	"time"

	"mobbr/internal/core"
)

// Trial is one evaluated stride.
type Trial struct {
	Stride      float64
	GoodputMbps float64
	RTTms       float64
	// Score is the objective value (goodput with the RTT guard applied).
	Score float64
}

// Options configures the search.
type Options struct {
	// Seeds per evaluation (default 2).
	Seeds int
	// Duration per run (default 3s).
	Duration time.Duration
	// RTTBudget caps tolerable RTT as a multiple of the 1× baseline's
	// RTT; strides exceeding it score 0. Zero disables the guard.
	RTTBudget float64
}

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 2
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	return o
}

// Result is the search outcome.
type Result struct {
	// Best is the winning trial.
	Best Trial
	// Baseline is the stock 1× trial.
	Baseline Trial
	// Trials are all evaluations, in ascending stride order.
	Trials []Trial
}

// Improvement returns Best.Goodput / Baseline.Goodput.
func (r *Result) Improvement() float64 {
	if r.Baseline.GoodputMbps == 0 {
		return 0
	}
	return r.Best.GoodputMbps / r.Baseline.GoodputMbps
}

// evaluate runs one stride and returns its trial.
func evaluate(spec core.Spec, stride float64, o Options) (Trial, error) {
	s := spec
	s.Stride = stride
	s.Duration = o.Duration
	s.Warmup = o.Duration / 5
	agg, err := core.RunSeeds(s, o.Seeds)
	if err != nil {
		return Trial{}, err
	}
	return Trial{
		Stride:      stride,
		GoodputMbps: agg.GoodputMbps(),
		RTTms:       agg.AvgRTT.Mean() / 1e6,
	}, nil
}

// HillClimb doubles the stride while the score improves, then refines once
// between the best and its better neighbour — cheaper than a full sweep
// when evaluations are expensive. It always evaluates 1× first as the
// baseline.
func HillClimb(spec core.Spec, opts Options) (*Result, error) {
	o := opts.withDefaults()
	res := &Result{}
	score := func(t Trial) float64 {
		if o.RTTBudget > 0 && res.Baseline.RTTms > 0 &&
			t.RTTms > res.Baseline.RTTms*o.RTTBudget {
			return 0
		}
		return t.GoodputMbps
	}

	base, err := evaluate(spec, 1, o)
	if err != nil {
		return nil, err
	}
	res.Baseline = base
	base.Score = base.GoodputMbps
	res.Trials = append(res.Trials, base)
	best := base
	prev := base
	for st := 2.0; st <= 64; st *= 2 {
		tr, err := evaluate(spec, st, o)
		if err != nil {
			return nil, err
		}
		tr.Score = score(tr)
		res.Trials = append(res.Trials, tr)
		if tr.Score > best.Score {
			prev, best = best, tr
			continue
		}
		// Worse than the best so far: refine between best and this
		// point, then stop.
		mid := math.Sqrt(best.Stride * tr.Stride)
		if m, err := evaluate(spec, mid, o); err == nil {
			m.Score = score(m)
			res.Trials = append(res.Trials, m)
			if m.Score > best.Score {
				best = m
			}
		}
		break
	}
	// One refinement on the other side too.
	if prev.Stride != best.Stride {
		mid := math.Sqrt(best.Stride * prev.Stride)
		if m, err := evaluate(spec, mid, o); err == nil {
			m.Score = score(m)
			res.Trials = append(res.Trials, m)
			if m.Score > best.Score {
				best = m
			}
		}
	}
	res.Best = best
	sort.Slice(res.Trials, func(i, j int) bool { return res.Trials[i].Stride < res.Trials[j].Stride })
	return res, nil
}
