// Package faults is the fault-injection and mobility layer: a Schedule of
// timed impairment events applied to a live netem path while the simulation
// runs. It models what a phone actually experiences in the field — link
// blackouts (elevators, tunnels), LTE→WiFi handovers, signal fades, delay
// spikes from radio-state promotions, and bursty (Gilbert–Elliott) loss —
// all driven off the sim.Engine clock and RNG, so every fault sequence is
// reproducible per seed.
package faults

import (
	"fmt"
	"sort"
	"time"

	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// Event is one timed impairment. Implementations validate their parameters
// and install themselves onto a pipe via engine-scheduled callbacks.
type Event interface {
	// Validate rejects nonsensical parameters.
	Validate() error
	// install arms the event's engine callbacks against the target pipe.
	install(eng *sim.Engine, pipe *netem.Pipe)
	// window returns the event's active interval [start, end].
	// Instantaneous events return start == end. Open-ended events
	// (BurstLoss with Duration 0) return end == start and open == true:
	// their effect persists to the end of the run, so the true interval
	// is [start, run end).
	window() (start, end time.Duration, open bool)
	// conflictKey names the stateful link knob the event holds for its
	// window ("" = instantaneous, conflict-free). Two events with the
	// same key must not overlap: both mutate-and-restore the same state,
	// so interleaving silently double-applies (a Resume un-pauses a
	// still-active Blackout; a DelaySpike restores another spike's
	// inflated delay; a BurstLoss end cancels another's GE model).
	conflictKey() string
	// String describes the event for logs and error messages.
	String() string
}

// Blackout pauses the link completely for Duration starting at Start: no
// packet is serialized or delivered, and queued packets are held (an
// elevator ride, a tunnel, the dead gap of a hard handover).
type Blackout struct {
	Start    time.Duration
	Duration time.Duration
}

// Validate implements Event.
func (b Blackout) Validate() error {
	if b.Start < 0 {
		return fmt.Errorf("faults: blackout start %v is negative", b.Start)
	}
	if b.Duration <= 0 {
		return fmt.Errorf("faults: blackout duration %v must be positive", b.Duration)
	}
	return nil
}

func (b Blackout) install(eng *sim.Engine, pipe *netem.Pipe) {
	eng.Schedule(b.Start, pipe.Pause)
	eng.Schedule(b.Start+b.Duration, pipe.Resume)
}

func (b Blackout) window() (time.Duration, time.Duration, bool) {
	return b.Start, b.Start + b.Duration, false
}

// Blackout and Handover both pause/resume the pipe, so they share a key.
func (b Blackout) conflictKey() string { return "outage" }

// String implements Event.
func (b Blackout) String() string {
	return fmt.Sprintf("blackout@%v for %v", b.Start, b.Duration)
}

// RateStep sets the link rate to Rate at time At — an abrupt capacity
// change (cell load change, carrier aggregation kicking in).
type RateStep struct {
	At   time.Duration
	Rate units.Bandwidth
}

// Validate implements Event.
func (r RateStep) Validate() error {
	if r.At < 0 {
		return fmt.Errorf("faults: rate step at %v is negative", r.At)
	}
	if r.Rate <= 0 {
		return fmt.Errorf("faults: rate step to %v must be positive (use Blackout for an outage)", r.Rate)
	}
	return nil
}

func (r RateStep) install(eng *sim.Engine, pipe *netem.Pipe) {
	eng.Schedule(r.At, func() { pipe.SetRate(r.Rate) })
}

func (r RateStep) window() (time.Duration, time.Duration, bool) { return r.At, r.At, false }

func (r RateStep) conflictKey() string { return "" }

// String implements Event.
func (r RateStep) String() string {
	return fmt.Sprintf("rate-step@%v to %v", r.At, r.Rate)
}

// RateRamp interpolates the link rate linearly from From to To over
// [Start, Start+Duration] in Steps discrete steps — a signal fade as the
// phone walks away from the access point, or recovery as it walks back.
type RateRamp struct {
	Start    time.Duration
	Duration time.Duration
	From, To units.Bandwidth
	// Steps is the number of discrete rate changes (default 10).
	Steps int
}

// Validate implements Event.
func (r RateRamp) Validate() error {
	if r.Start < 0 {
		return fmt.Errorf("faults: rate ramp start %v is negative", r.Start)
	}
	if r.Duration <= 0 {
		return fmt.Errorf("faults: rate ramp duration %v must be positive", r.Duration)
	}
	if r.From <= 0 || r.To <= 0 {
		return fmt.Errorf("faults: rate ramp %v→%v must stay positive", r.From, r.To)
	}
	if r.Steps < 0 {
		return fmt.Errorf("faults: rate ramp steps %d is negative", r.Steps)
	}
	if r.Steps > maxRampSteps {
		return fmt.Errorf("faults: rate ramp steps %d exceeds %d (each step schedules an engine event)", r.Steps, maxRampSteps)
	}
	return nil
}

// maxRampSteps bounds the engine events one ramp may schedule.
const maxRampSteps = 10_000

func (r RateRamp) install(eng *sim.Engine, pipe *netem.Pipe) {
	steps := r.Steps
	if steps <= 0 {
		steps = 10
	}
	for i := 1; i <= steps; i++ {
		frac := float64(i) / float64(steps)
		rate := r.From + units.Bandwidth(float64(r.To-r.From)*frac)
		at := r.Start + time.Duration(float64(r.Duration)*frac)
		eng.Schedule(at, func() { pipe.SetRate(rate) })
	}
}

func (r RateRamp) window() (time.Duration, time.Duration, bool) {
	return r.Start, r.Start + r.Duration, false
}

func (r RateRamp) conflictKey() string { return "rate-ramp" }

// String implements Event.
func (r RateRamp) String() string {
	return fmt.Sprintf("rate-ramp@%v %v→%v over %v", r.Start, r.From, r.To, r.Duration)
}

// DelaySpike adds Extra one-way delay for Duration starting at Start — a
// radio-state promotion, a scheduling outage, deep paging. The pipe's
// pre-spike delay is captured at onset and restored afterwards.
type DelaySpike struct {
	Start    time.Duration
	Duration time.Duration
	Extra    time.Duration
}

// Validate implements Event.
func (d DelaySpike) Validate() error {
	if d.Start < 0 {
		return fmt.Errorf("faults: delay spike start %v is negative", d.Start)
	}
	if d.Duration <= 0 {
		return fmt.Errorf("faults: delay spike duration %v must be positive", d.Duration)
	}
	if d.Extra <= 0 {
		return fmt.Errorf("faults: delay spike extra %v must be positive", d.Extra)
	}
	return nil
}

func (d DelaySpike) install(eng *sim.Engine, pipe *netem.Pipe) {
	eng.Schedule(d.Start, func() {
		old := pipe.Delay()
		pipe.SetDelay(old + d.Extra)
		eng.Schedule(d.Duration, func() { pipe.SetDelay(old) })
	})
}

func (d DelaySpike) window() (time.Duration, time.Duration, bool) {
	return d.Start, d.Start + d.Duration, false
}

func (d DelaySpike) conflictKey() string { return "delay-excursion" }

// String implements Event.
func (d DelaySpike) String() string {
	return fmt.Sprintf("delay-spike@%v +%v for %v", d.Start, d.Extra, d.Duration)
}

// BurstLoss switches the pipe to Gilbert–Elliott two-state burst loss at
// Start; Duration 0 keeps it for the rest of the run. State transitions
// draw from the engine RNG, so the loss pattern is seed-reproducible.
type BurstLoss struct {
	Start    time.Duration
	Duration time.Duration // 0 = until end of run
	GE       netem.GEConfig
}

// Validate implements Event.
func (b BurstLoss) Validate() error {
	if b.Start < 0 {
		return fmt.Errorf("faults: burst loss start %v is negative", b.Start)
	}
	if b.Duration < 0 {
		return fmt.Errorf("faults: burst loss duration %v is negative", b.Duration)
	}
	return b.GE.Validate()
}

func (b BurstLoss) install(eng *sim.Engine, pipe *netem.Pipe) {
	ge := b.GE
	eng.Schedule(b.Start, func() { _ = pipe.SetGE(&ge) })
	if b.Duration > 0 {
		eng.Schedule(b.Start+b.Duration, func() { _ = pipe.SetGE(nil) })
	}
}

func (b BurstLoss) window() (time.Duration, time.Duration, bool) {
	// Duration 0 keeps the GE model armed to the end of the run.
	return b.Start, b.Start + b.Duration, b.Duration == 0
}

func (b BurstLoss) conflictKey() string { return "burst-loss" }

// String implements Event.
func (b BurstLoss) String() string {
	return fmt.Sprintf("burst-loss@%v for %v", b.Start, b.Duration)
}

// DelayStep sets the hop's one-way propagation delay to Delay at time At —
// an absolute counterpart to DelaySpike for trace replay, where each trace
// sample dictates the delay directly instead of a temporary excursion.
type DelayStep struct {
	At    time.Duration
	Delay time.Duration
}

// Validate implements Event.
func (d DelayStep) Validate() error {
	if d.At < 0 {
		return fmt.Errorf("faults: delay step at %v is negative", d.At)
	}
	if d.Delay < 0 {
		return fmt.Errorf("faults: delay step to %v is negative", d.Delay)
	}
	return nil
}

func (d DelayStep) install(eng *sim.Engine, pipe *netem.Pipe) {
	eng.Schedule(d.At, func() { _ = pipe.SetDelay(d.Delay) })
}

func (d DelayStep) window() (time.Duration, time.Duration, bool) { return d.At, d.At, false }

func (d DelayStep) conflictKey() string { return "" }

// String implements Event.
func (d DelayStep) String() string {
	return fmt.Sprintf("delay-step@%v to %v", d.At, d.Delay)
}

// Handover models a hard vertical handover (LTE→WiFi and back): the link
// goes dark for Outage at At, and comes back up with the new network's
// Rate and Delay. A zero Rate or Delay keeps the old value.
type Handover struct {
	At     time.Duration
	Outage time.Duration
	// Rate is the new link rate after the handover (0 = unchanged).
	Rate units.Bandwidth
	// Delay is the new one-way propagation delay (0 = unchanged).
	Delay time.Duration
}

// Validate implements Event.
func (h Handover) Validate() error {
	if h.At < 0 {
		return fmt.Errorf("faults: handover at %v is negative", h.At)
	}
	if h.Outage < 0 {
		return fmt.Errorf("faults: handover outage %v is negative", h.Outage)
	}
	if h.Outage == 0 {
		return fmt.Errorf("faults: handover outage must be positive — a zero-outage link change is a RateStep/DelayStep, not a handover")
	}
	if h.Rate < 0 {
		return fmt.Errorf("faults: handover rate %v is negative", h.Rate)
	}
	if h.Delay < 0 {
		return fmt.Errorf("faults: handover delay %v is negative", h.Delay)
	}
	return nil
}

func (h Handover) install(eng *sim.Engine, pipe *netem.Pipe) {
	eng.Schedule(h.At, func() {
		pipe.Pause()
		// The new link's parameters take effect while dark, so the first
		// packet after resume already sees the new network.
		if h.Rate > 0 {
			pipe.SetRate(h.Rate)
		}
		if h.Delay > 0 {
			_ = pipe.SetDelay(h.Delay)
		}
	})
	eng.Schedule(h.At+h.Outage, pipe.Resume)
}

func (h Handover) window() (time.Duration, time.Duration, bool) {
	return h.At, h.At + h.Outage, false
}

// Handover pauses/resumes like Blackout, so they share a key.
func (h Handover) conflictKey() string { return "outage" }

// String implements Event.
func (h Handover) String() string {
	return fmt.Sprintf("handover@%v outage %v → rate %v delay %v", h.At, h.Outage, h.Rate, h.Delay)
}

// Schedule is a set of impairment events applied to one hop of a path.
type Schedule struct {
	// Hop indexes the path hop the events apply to (0 is the hop next to
	// the sender — the radio/air link in the wireless presets).
	Hop int
	// Events fire independently; overlapping events on the same knob are
	// applied in schedule order at each instant.
	Events []Event
}

// Validate checks the whole schedule.
func (s Schedule) Validate() error {
	if s.Hop < 0 {
		return fmt.Errorf("faults: hop index %d is negative", s.Hop)
	}
	for i, ev := range s.Events {
		if ev == nil {
			return fmt.Errorf("faults: event %d is nil", i)
		}
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("event %d (%s): %w", i, ev, err)
		}
	}
	return s.validateOverlaps()
}

// validateOverlaps rejects two windowed events of the same conflict family
// holding the link at once. Each such event saves state at onset and
// restores it at its end, so interleaved windows double-apply: the first
// Resume un-pauses a link a second Blackout still holds dark, a DelaySpike
// "restores" another spike's inflated delay, a BurstLoss end disarms a GE
// model a later window believes is active. Back-to-back windows (one ends
// exactly where the next starts) are fine — schedule order applies the end
// before the next start at that instant.
func (s Schedule) validateOverlaps() error {
	type win struct {
		idx        int
		ev         Event
		start, end time.Duration
		open       bool
	}
	families := map[string][]win{}
	for i, ev := range s.Events {
		key := ev.conflictKey()
		if key == "" {
			continue // instantaneous, conflict-free
		}
		start, end, open := ev.window()
		families[key] = append(families[key], win{i, ev, start, end, open})
	}
	for _, wins := range families {
		sort.SliceStable(wins, func(a, b int) bool { return wins[a].start < wins[b].start })
		for i := 1; i < len(wins); i++ {
			prev, cur := wins[i-1], wins[i]
			if prev.open {
				return fmt.Errorf("faults: event %d (%s) overlaps event %d (%s), which is open-ended (runs to end of run)",
					cur.idx, cur.ev, prev.idx, prev.ev)
			}
			if cur.start < prev.end {
				return fmt.Errorf("faults: event %d (%s) overlaps event %d (%s): window [%v, %v) is still active at %v",
					cur.idx, cur.ev, prev.idx, prev.ev, prev.start, prev.end, cur.start)
			}
		}
	}
	return nil
}

// Empty reports whether the schedule has no events.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// Window returns the envelope of all events: the earliest start and the
// latest scheduled end, for phase attribution (before/during/after the
// fault window). open reports that at least one event is open-ended (its
// effect persists to the end of the run, e.g. BurstLoss with Duration 0),
// so the true envelope extends past end to the run's end — callers must
// not treat anything after end as fault-free when open is set. ok is
// false when the schedule is empty.
func (s Schedule) Window() (start, end time.Duration, open, ok bool) {
	if s.Empty() {
		return 0, 0, false, false
	}
	for i, ev := range s.Events {
		es, ee, eo := ev.window()
		if i == 0 || es < start {
			start = es
		}
		if ee > end {
			end = ee
		}
		open = open || eo
	}
	return start, end, open, true
}

// InstallObserved validates the schedule and arms every event on the target
// path. Event times are relative to installation — install before starting
// the run so they read as absolute virtual times. Each event's begin and end
// are announced on the bus (KindFault, Conn -1) at the window edges, so
// traces carry the fault timeline alongside the transport's reaction to it;
// a nil bus announces nothing.
func (s Schedule) InstallObserved(eng *sim.Engine, path *netem.Path, bus *telemetry.Bus) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Hop >= path.NumHops() {
		return fmt.Errorf("faults: hop %d out of range (path has %d hops)", s.Hop, path.NumHops())
	}
	pipe := path.Hop(s.Hop)
	for _, ev := range s.Events {
		ev.install(eng, pipe)
		if bus != nil {
			desc := ev.String()
			start, end, open := ev.window()
			eng.Schedule(start, func() {
				bus.Emit(telemetry.Event{Kind: telemetry.KindFault, Conn: -1, Old: "begin", New: desc})
			})
			// Open-ended events never end, so they get no end marker.
			if end > start && !open {
				eng.Schedule(end, func() {
					bus.Emit(telemetry.Event{Kind: telemetry.KindFault, Conn: -1, Old: "end", New: desc})
				})
			}
		}
	}
	return nil
}
