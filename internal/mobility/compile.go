package mobility

import (
	"fmt"
	"math"
	"time"

	"mobbr/internal/faults"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// The compiler lowers a trace to the fault-injection layer's vocabulary:
//
//	non-zero rate change   → faults.RateStep   (with hysteresis)
//	zero-rate stretch      → faults.Blackout   (the pipe pauses; queues hold)
//	RTT change             → faults.DelayStep  (one-way delay on the hop)
//	lossy stretch          → faults.BurstLoss  (Gilbert–Elliott window)
//
// so a replay rides the exact same netem mutators as the hand-built
// schedules, and everything downstream (telemetry fault events, the
// profiler's phase attribution, the invariant checker) works unchanged.

// CompileOptions tunes the lowering.
type CompileOptions struct {
	// Hop is the path hop the schedule targets (0 = the radio link in
	// the wireless presets).
	Hop int
	// RateHysteresis suppresses rate steps whose relative change from
	// the last applied rate is below this fraction (default 0.05). Zero
	// steps are never suppressed.
	RateHysteresis float64
	// MinDelayChange suppresses delay steps smaller than this
	// (default 2ms).
	MinDelayChange time.Duration
	// LossThreshold opens a Gilbert–Elliott window over every maximal
	// run of samples at or above this loss fraction (default 0.005).
	LossThreshold float64
	// OtherRTT is the round-trip contributed by the rest of the path
	// (non-trace hops plus the ACK return); it is subtracted from the
	// trace RTT before the remainder is halved into the hop's one-way
	// delay. The LTE preset's share is netem-defined; see repro.
	OtherRTT time.Duration
	// MinOneWayDelay floors the computed hop delay (default 1ms) so a
	// trace RTT below OtherRTT cannot produce a zero or negative delay.
	MinOneWayDelay time.Duration
}

func (o CompileOptions) withDefaults() CompileOptions {
	if o.RateHysteresis == 0 {
		o.RateHysteresis = 0.05
	}
	if o.MinDelayChange == 0 {
		o.MinDelayChange = 2 * time.Millisecond
	}
	if o.LossThreshold == 0 {
		o.LossThreshold = 0.005
	}
	if o.MinOneWayDelay == 0 {
		o.MinOneWayDelay = time.Millisecond
	}
	return o
}

// Validate rejects nonsensical options.
func (o CompileOptions) Validate() error {
	if o.Hop < 0 {
		return fmt.Errorf("mobility: negative hop %d", o.Hop)
	}
	if o.RateHysteresis < 0 || o.RateHysteresis >= 1 {
		return fmt.Errorf("mobility: rate hysteresis %v out of [0,1)", o.RateHysteresis)
	}
	if o.MinDelayChange < 0 {
		return fmt.Errorf("mobility: negative min delay change %v", o.MinDelayChange)
	}
	if o.LossThreshold < 0 || o.LossThreshold > 1 {
		return fmt.Errorf("mobility: loss threshold %v out of [0,1]", o.LossThreshold)
	}
	if o.OtherRTT < 0 {
		return fmt.Errorf("mobility: negative other-RTT %v", o.OtherRTT)
	}
	if o.MinOneWayDelay < 0 {
		return fmt.Errorf("mobility: negative min one-way delay %v", o.MinOneWayDelay)
	}
	return nil
}

// Compiled is a trace lowered to an installable fault schedule, keeping the
// trace and its segmentation for reporting.
type Compiled struct {
	Trace    Trace
	Options  CompileOptions
	Schedule faults.Schedule
	Segments []Segment
}

// geFor derives Gilbert–Elliott parameters reproducing a mean loss
// fraction: LossGood stays 0, the Bad state is sticky (mean burst of four
// packets at PBadToGood = 0.25), and PGoodToBad is solved from the
// stationary Bad-state occupancy piBad = mean/LossBad.
func geFor(meanLoss float64) netem.GEConfig {
	const pBadToGood = 0.25
	lossBad := 4 * meanLoss
	if lossBad > 1 {
		lossBad = 1
	}
	if lossBad < 0.5 {
		lossBad = 0.5
	}
	piBad := meanLoss / lossBad
	if piBad > 0.95 {
		piBad = 0.95
	}
	pGoodToBad := pBadToGood * piBad / (1 - piBad)
	if pGoodToBad > 1 {
		pGoodToBad = 1
	}
	return netem.GEConfig{
		PGoodToBad: pGoodToBad,
		PBadToGood: pBadToGood,
		LossBad:    lossBad,
	}
}

// Compile lowers the trace into a fault schedule per opt. The trace must
// validate; the returned schedule validates by construction (Compile checks
// it anyway and fails loudly rather than emit an uninstallable schedule).
func Compile(tr Trace, opt CompileOptions) (*Compiled, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	end := tr.Duration()
	var events []faults.Event

	oneWay := func(rtt time.Duration) time.Duration {
		d := (rtt - opt.OtherRTT) / 2
		if d < opt.MinOneWayDelay {
			d = opt.MinOneWayDelay
		}
		return d
	}

	var (
		curRate     units.Bandwidth = -1 // -1 forces the first step
		curDelay    time.Duration   = -1
		inOutage    bool
		outageStart time.Duration
	)
	for _, s := range tr.Samples {
		if s.Rate == 0 {
			if !inOutage {
				inOutage = true
				outageStart = s.T
			}
			continue
		}
		if inOutage {
			events = append(events, faults.Blackout{Start: outageStart, Duration: s.T - outageStart})
			inOutage = false
			curRate = -1 // re-assert the rate when the link returns
		}
		if curRate < 0 || math.Abs(float64(s.Rate-curRate)) >= opt.RateHysteresis*float64(curRate) {
			events = append(events, faults.RateStep{At: s.T, Rate: s.Rate})
			curRate = s.Rate
		}
		if s.RTT > 0 {
			d := oneWay(s.RTT)
			diff := d - curDelay
			if diff < 0 {
				diff = -diff
			}
			if curDelay < 0 || diff >= opt.MinDelayChange {
				events = append(events, faults.DelayStep{At: s.T, Delay: d})
				curDelay = d
			}
		}
	}
	if inOutage {
		d := end - outageStart
		if d <= 0 {
			d = time.Millisecond
		}
		events = append(events, faults.Blackout{Start: outageStart, Duration: d})
	}

	// Gilbert–Elliott windows over maximal lossy non-outage runs.
	runStart, lossSum, lossN := time.Duration(-1), 0.0, 0
	flushLoss := func(runEnd time.Duration) {
		if runStart < 0 {
			return
		}
		dur := runEnd - runStart
		if dur <= 0 {
			dur = time.Millisecond
		}
		events = append(events, faults.BurstLoss{
			Start:    runStart,
			Duration: dur,
			GE:       geFor(lossSum / float64(lossN)),
		})
		runStart, lossSum, lossN = -1, 0, 0
	}
	for _, s := range tr.Samples {
		if s.Rate > 0 && s.Loss >= opt.LossThreshold {
			if runStart < 0 {
				runStart = s.T
			}
			lossSum += s.Loss
			lossN++
		} else {
			flushLoss(s.T)
		}
	}
	flushLoss(end)

	c := &Compiled{
		Trace:    tr,
		Options:  opt,
		Schedule: faults.Schedule{Hop: opt.Hop, Events: events},
		Segments: tr.Segments(),
	}
	if err := c.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: compiled schedule invalid: %w", err)
	}
	return c, nil
}

// Install arms the compiled schedule on the path and, when a bus is given,
// publishes the trace's segment timeline (telemetry.KindSegment, Conn -1)
// alongside the per-event fault markers InstallObserved already emits: one
// begin and one end per segment, carrying the kind label and the segment's
// mean rate in Mbps.
func (c *Compiled) Install(eng *sim.Engine, path *netem.Path, bus *telemetry.Bus) error {
	if err := c.Schedule.InstallObserved(eng, path, bus); err != nil {
		return err
	}
	if bus == nil {
		return nil
	}
	for _, s := range c.Segments {
		s := s
		desc := fmt.Sprintf("%s %s", c.Trace.Name, s.Kind)
		eng.Schedule(s.Start, func() {
			bus.Emit(telemetry.Event{
				Kind: telemetry.KindSegment, Conn: -1,
				Old: "begin", New: desc, Value: s.MeanRate.Mbit(),
			})
		})
		eng.Schedule(s.End, func() {
			bus.Emit(telemetry.Event{
				Kind: telemetry.KindSegment, Conn: -1,
				Old: "end", New: desc, Value: s.MeanRate.Mbit(),
			})
		})
	}
	return nil
}
