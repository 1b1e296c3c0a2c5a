package chaos

import (
	"strings"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/netem"
)

// maxShrinkRuns bounds the simulator runs one shrink may spend. Runs are
// sub-second sims, so this caps a shrink at roughly a minute of wall time;
// hitting the cap just returns the best reproducer found so far.
const maxShrinkRuns = 400

// Shrink delta-debugs spec down to a minimal reproducer of the failure
// signature: it repeatedly proposes strictly simpler candidate specs —
// dropping fault events ddmin-style, removing the mobility trace, cutting
// connections, halving the duration, resetting optional knobs — and keeps
// a candidate iff it still validates and still fails with the same
// signature under the same budgets. Runs are deterministic per seed, so
// the result is deterministic too.
func Shrink(spec core.Spec, b Budgets, sig string) core.Spec {
	cur := spec
	runs := 0
	keep := func(c core.Spec) bool {
		if runs >= maxShrinkRuns || c.Validate() != nil {
			return false
		}
		runs++
		return Run(c, b).Signature() == sig
	}
	// Fixpoint: sweep the passes until a full sweep simplifies nothing.
	for improved := true; improved; {
		improved = false
		for _, pass := range shrinkPasses {
			for _, c := range pass(cur) {
				if keep(c) {
					cur = c
					improved = true
					break
				}
			}
		}
	}
	return cur
}

// shrinkPasses propose simpler candidates, biggest wins first. Each
// candidate must be strictly simpler than its input, so the fixpoint loop
// terminates; Shrink's keep() is the only accept gate.
var shrinkPasses = []func(core.Spec) []core.Spec{
	dropMobility,
	dropFaultEvents,
	simplifyCC,
	reduceConns,
	halveDuration,
	clearKnobs,
	resetEnvironment,
	resetLimits,
}

func dropMobility(s core.Spec) []core.Spec {
	if s.Mobility == nil {
		return nil
	}
	c := s
	c.Mobility = nil
	return []core.Spec{c}
}

// dropFaultEvents is ddmin over the schedule: all, then halves, then each
// single event. Repeated sweeps by the fixpoint loop reduce any subset.
func dropFaultEvents(s core.Spec) []core.Spec {
	n := len(s.Faults.Events)
	if n == 0 {
		return nil
	}
	without := func(lo, hi int) core.Spec {
		c := s
		rest := make([]faults.Event, 0, n-(hi-lo))
		rest = append(rest, s.Faults.Events[:lo]...)
		rest = append(rest, s.Faults.Events[hi:]...)
		if len(rest) == 0 {
			c.Faults = faults.Schedule{}
		} else {
			c.Faults = faults.Schedule{Hop: s.Faults.Hop, Events: rest}
		}
		return c
	}
	out := []core.Spec{without(0, n)}
	if n > 1 {
		out = append(out, without(0, n/2), without(n/2, n))
		for i := 0; i < n; i++ {
			out = append(out, without(i, i+1))
		}
	}
	return out
}

func simplifyCC(s core.Spec) []core.Spec {
	var out []core.Spec
	if i := strings.IndexByte(s.CC, ','); i >= 0 {
		c := s
		c.CC = s.CC[:i]
		out = append(out, c)
	}
	if s.CC != "cubic" && s.CC != "" && !strings.Contains(s.CC, ",") {
		c := s
		c.CC = "cubic"
		out = append(out, c)
	}
	return out
}

func reduceConns(s core.Spec) []core.Spec {
	if s.Conns <= 1 {
		return nil
	}
	one, half := s, s
	one.Conns = 1
	half.Conns = s.Conns / 2
	if half.Conns == 1 {
		return []core.Spec{one}
	}
	return []core.Spec{one, half}
}

func halveDuration(s core.Spec) []core.Spec {
	if s.Duration <= 200*time.Millisecond {
		return nil
	}
	c := s
	c.Duration = s.Duration / 2
	c.Warmup = c.Duration / 5
	// Keep the injected fault inside the shorter run; if moving it
	// changes the signature, keep() rejects the candidate.
	if c.Inject.Kind != "" && c.Inject.At >= c.Duration {
		c.Inject.At = c.Duration / 2
	}
	return []core.Spec{c}
}

// clearKnobs resets each optional knob to its zero value, one at a time.
func clearKnobs(s core.Spec) []core.Spec {
	var out []core.Spec
	add := func(mut func(*core.Spec)) {
		c := s
		mut(&c)
		out = append(out, c)
	}
	if s.TC != (netem.TC{}) {
		add(func(c *core.Spec) { c.TC = netem.TC{} })
	}
	if s.Stride != 0 {
		add(func(c *core.Spec) { c.Stride = 0 })
	}
	if s.PacingOverride != nil {
		add(func(c *core.Spec) { c.PacingOverride = nil })
	}
	if s.HardwarePacing {
		add(func(c *core.Spec) { c.HardwarePacing = false })
	}
	if s.FixedPacingRate != 0 {
		add(func(c *core.Spec) { c.FixedPacingRate = 0 })
	}
	if s.FixedCwnd != 0 {
		add(func(c *core.Spec) { c.FixedCwnd = 0 })
	}
	if s.DisableModel {
		add(func(c *core.Spec) { c.DisableModel = false })
	}
	if s.SndBuf != 0 {
		add(func(c *core.Spec) { c.SndBuf = 0 })
	}
	if s.Interval != 0 {
		add(func(c *core.Spec) { c.Interval = 0 })
	}
	return out
}

func resetEnvironment(s core.Spec) []core.Spec {
	var out []core.Spec
	var zeroDev device.Model
	var zeroCPU device.Config
	if s.Network != core.Ethernet {
		c := s
		c.Network = core.Ethernet
		out = append(out, c)
	}
	if s.Device != zeroDev {
		c := s
		c.Device = zeroDev
		out = append(out, c)
	}
	if s.CPU != zeroCPU {
		c := s
		c.CPU = zeroCPU
		out = append(out, c)
	}
	return out
}

func resetLimits(s core.Spec) []core.Spec {
	var out []core.Spec
	if s.Seed != 0 && s.Seed != 1 {
		c := s
		c.Seed = 1
		out = append(out, c)
	}
	if s.MaxEvents != 0 {
		c := s
		c.MaxEvents = 0
		out = append(out, c)
	}
	if s.MaxStall != 0 {
		c := s
		c.MaxStall = 0
		out = append(out, c)
	}
	if s.MaxWallClock != 0 {
		c := s
		c.MaxWallClock = 0
		out = append(out, c)
	}
	return out
}
