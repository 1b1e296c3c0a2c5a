// Package mobility is the trace-driven mobility subsystem: it ingests
// timestamped bandwidth/RTT/loss traces of real cellular links (CSV and
// JSONL in the shape of the public Irish 4G and NYC LTE datasets),
// synthesizes traces from a seeded Markov-modulated channel model when no
// dataset is at hand, and compiles any trace into a faults.Schedule that
// replays the measured commute on a live netem path — rate steps, delay
// steps, Gilbert–Elliott loss windows, and blackouts for zero-rate gaps.
//
// The pipeline is Load/Parse* (or Synthesize) → Resample → Compile →
// Compiled.Install. Everything is deterministic: parsing is pure, synthesis
// draws from a caller-provided seed, and the compiled schedule contains no
// randomness beyond the engine RNG the GE loss model already uses, so one
// seed plus one trace reproduces a run bit for bit.
package mobility

import (
	"fmt"
	"math"
	"time"

	"mobbr/internal/units"
)

// Sample is one point of a trace: the link state measured (or synthesized)
// at offset T from the trace start.
type Sample struct {
	// T is the offset from the trace start. Samples are strictly
	// increasing in T.
	T time.Duration
	// Rate is the link capacity at T. Zero means a full outage (the
	// dataset reported no bytes through this period).
	Rate units.Bandwidth
	// RTT is the measured round-trip time at T; 0 means not reported
	// (the compiler then leaves the path delay alone).
	RTT time.Duration
	// Loss is the measured loss fraction in [0, 1].
	Loss float64
}

// Trace is an ordered series of link samples.
type Trace struct {
	// Name labels the trace in reports ("irish4g_sample", "driving").
	Name string
	// Tick is the fixed sample spacing after Resample; 0 means the
	// samples are irregular (as loaded from a dataset).
	Tick time.Duration
	// Samples in strictly increasing T order, first at T >= 0.
	Samples []Sample
}

// maxSamples bounds a trace so a malformed or hostile input cannot exhaust
// memory downstream (the compiler emits O(samples) events).
const maxSamples = 1 << 20

// Validate rejects malformed traces: empty, covering no time, non-monotone
// time, negative or non-finite rates, loss outside [0, 1].
func (tr Trace) Validate() error {
	if len(tr.Samples) == 0 {
		return fmt.Errorf("mobility: trace %q has no samples", tr.Name)
	}
	if len(tr.Samples) > maxSamples {
		return fmt.Errorf("mobility: trace %q has %d samples (max %d)", tr.Name, len(tr.Samples), maxSamples)
	}
	if tr.Tick < 0 {
		return fmt.Errorf("mobility: trace %q has negative tick %v", tr.Name, tr.Tick)
	}
	for i, s := range tr.Samples {
		if s.T < 0 {
			return fmt.Errorf("mobility: trace %q sample %d at negative time %v", tr.Name, i, s.T)
		}
		if i > 0 && s.T <= tr.Samples[i-1].T {
			return fmt.Errorf("mobility: trace %q sample %d time %v not after previous %v",
				tr.Name, i, s.T, tr.Samples[i-1].T)
		}
		if s.Rate < 0 {
			return fmt.Errorf("mobility: trace %q sample %d has negative rate %v", tr.Name, i, s.Rate)
		}
		if s.RTT < 0 {
			return fmt.Errorf("mobility: trace %q sample %d has negative RTT %v", tr.Name, i, s.RTT)
		}
		if math.IsNaN(s.Loss) || s.Loss < 0 || s.Loss > 1 {
			return fmt.Errorf("mobility: trace %q sample %d loss %v out of [0,1]", tr.Name, i, s.Loss)
		}
	}
	if tr.Duration() == 0 {
		return fmt.Errorf("mobility: trace %q covers no time (one sample at 0 and no tick)", tr.Name)
	}
	return nil
}

// Duration is the trace's covered time span: the last sample's offset plus
// one tick (each sample describes the interval until the next one).
func (tr Trace) Duration() time.Duration {
	if len(tr.Samples) == 0 {
		return 0
	}
	last := tr.Samples[len(tr.Samples)-1].T
	if tr.Tick > 0 {
		return last + tr.Tick
	}
	return last
}

// Stats summarizes a trace for reports.
type Stats struct {
	// MeanRate and PeakRate are over the non-outage samples.
	MeanRate, PeakRate units.Bandwidth
	// OutageFraction is the share of samples with zero rate.
	OutageFraction float64
	// MeanRTT is over the samples that report an RTT.
	MeanRTT time.Duration
}

// Stats computes the trace summary.
func (tr Trace) Stats() Stats {
	var st Stats
	var rateSum float64
	var rateN, outN, rttN int
	var rttSum time.Duration
	for _, s := range tr.Samples {
		if s.Rate == 0 {
			outN++
		} else {
			rateSum += float64(s.Rate)
			rateN++
			if s.Rate > st.PeakRate {
				st.PeakRate = s.Rate
			}
		}
		if s.RTT > 0 {
			rttSum += s.RTT
			rttN++
		}
	}
	if rateN > 0 {
		st.MeanRate = units.Bandwidth(rateSum / float64(rateN))
	}
	if len(tr.Samples) > 0 {
		st.OutageFraction = float64(outN) / float64(len(tr.Samples))
	}
	if rttN > 0 {
		st.MeanRTT = rttSum / time.Duration(rttN)
	}
	return st
}

// Resample projects the trace onto a fixed tick grid from 0 to Duration:
// samples inside each bucket are averaged; empty buckets hold the previous
// bucket's values (the dataset simply did not report during that second).
// The result always starts at T = 0.
func (tr Trace) Resample(tick time.Duration) (Trace, error) {
	if tick <= 0 {
		return Trace{}, fmt.Errorf("mobility: resample tick %v must be positive", tick)
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	end := tr.Duration()
	if end < tick {
		end = tick
	}
	n := int((end + tick - 1) / tick)
	if n > maxSamples {
		return Trace{}, fmt.Errorf("mobility: resampling %q at %v yields %d samples (max %d)",
			tr.Name, tick, n, maxSamples)
	}
	out := Trace{Name: tr.Name, Tick: tick, Samples: make([]Sample, 0, n)}
	idx := 0
	// Carry the previous bucket's values into empty buckets; before the
	// first reported sample, hold that first sample's values.
	prev := tr.Samples[0]
	for b := 0; b < n; b++ {
		lo, hi := time.Duration(b)*tick, time.Duration(b+1)*tick
		var rateSum, lossSum float64
		var rttSum time.Duration
		var cnt, rttN int
		for idx < len(tr.Samples) && tr.Samples[idx].T < hi {
			s := tr.Samples[idx]
			if s.T >= lo {
				rateSum += float64(s.Rate)
				lossSum += s.Loss
				if s.RTT > 0 {
					rttSum += s.RTT
					rttN++
				}
				cnt++
			}
			idx++
		}
		cur := prev
		cur.T = lo
		if cnt > 0 {
			cur.Rate = units.Bandwidth(rateSum / float64(cnt))
			cur.Loss = lossSum / float64(cnt)
			if rttN > 0 {
				cur.RTT = rttSum / time.Duration(rttN)
			}
		}
		out.Samples = append(out.Samples, cur)
		prev = cur
	}
	return out, nil
}

// SegmentKind classifies a stretch of a trace for reporting and telemetry.
type SegmentKind int

// Segment kinds.
const (
	// SegOutage is a zero-rate stretch (tunnel, elevator, dead zone).
	SegOutage SegmentKind = iota
	// SegDegraded is a stretch well below the trace's typical rate.
	SegDegraded
	// SegNominal is everything else.
	SegNominal
)

// String returns the kind's label.
func (k SegmentKind) String() string {
	switch k {
	case SegOutage:
		return "outage"
	case SegDegraded:
		return "degraded"
	case SegNominal:
		return "nominal"
	default:
		return "unknown"
	}
}

// Segment is a maximal run of consecutive samples with one kind.
type Segment struct {
	Start, End time.Duration
	Kind       SegmentKind
	// MeanRate is the mean sample rate across the segment.
	MeanRate units.Bandwidth
}

// degradedFraction of the mean non-outage rate is the SegDegraded cutoff.
const degradedFraction = 0.3

// Segments partitions the trace into outage / degraded / nominal runs. The
// degraded threshold is 30% of the trace's mean non-outage rate, so the
// classification adapts to the link the trace was measured on.
func (tr Trace) Segments() []Segment {
	if len(tr.Samples) == 0 {
		return nil
	}
	cutoff := units.Bandwidth(float64(tr.Stats().MeanRate) * degradedFraction)
	classify := func(s Sample) SegmentKind {
		switch {
		case s.Rate == 0:
			return SegOutage
		case s.Rate < cutoff:
			return SegDegraded
		default:
			return SegNominal
		}
	}
	var segs []Segment
	cur := Segment{Start: tr.Samples[0].T, Kind: classify(tr.Samples[0])}
	var rateSum float64
	var rateN int
	flush := func(end time.Duration) {
		cur.End = end
		if rateN > 0 {
			cur.MeanRate = units.Bandwidth(rateSum / float64(rateN))
		}
		segs = append(segs, cur)
	}
	for _, s := range tr.Samples {
		k := classify(s)
		if k != cur.Kind {
			flush(s.T)
			cur = Segment{Start: s.T, Kind: k}
			rateSum, rateN = 0, 0
		}
		rateSum += float64(s.Rate)
		rateN++
	}
	flush(tr.Duration())
	return segs
}
