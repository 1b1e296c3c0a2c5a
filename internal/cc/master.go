package cc

import (
	"fmt"

	"mobbr/internal/units"
)

// The paper's "master BBR kernel module" (§5): a wrapper around any
// congestion-control algorithm that can disable the inner model's
// computation, pin the congestion window, and pin the pacing rate — the
// knobs the paper uses to attribute BBR's mobile slowdown to packet pacing
// rather than to its model or cwnd choices.

// Overrides selects which aspects of the inner algorithm to pin.
type Overrides struct {
	// FixedCwnd pins the congestion window to this many packets
	// (0 = leave to the inner module). The paper uses 70, Cubic's
	// average for the same workload (§5.1).
	FixedCwnd int
	// FixedPacingRate pins the per-connection pacing rate
	// (0 = leave to the inner module). §5.1.2 sweeps this.
	FixedPacingRate units.Bandwidth
	// DisableModel skips the inner module's per-ACK computation
	// entirely, as §5.1.1 does to rule out BBR's model cost.
	DisableModel bool
}

// residualAckCost is the per-ACK cost with the model disabled: the wrapper
// still runs the (empty) congestion hook.
const residualAckCost = 150

// Master is the master module: an inner congestion control with overrides.
type Master struct {
	inner CongestionControl
	ov    Overrides
}

// Wrap returns a master module around inner.
func Wrap(inner CongestionControl, ov Overrides) *Master {
	if inner == nil {
		panic("cc: master module around a nil congestion control")
	}
	return &Master{inner: inner, ov: ov}
}

// WrapFactory wraps every instance produced by inner with the same
// overrides.
func WrapFactory(inner Factory, ov Overrides) Factory {
	return func() CongestionControl { return Wrap(inner(), ov) }
}

// Name implements CongestionControl.
func (m *Master) Name() string { return fmt.Sprintf("master[%s]", m.inner.Name()) }

// Inner returns the wrapped module.
func (m *Master) Inner() CongestionControl { return m.inner }

// WantsPacing implements CongestionControl, deferring to the inner module;
// force pacing on/off with tcp.Config.PacingOverride.
func (m *Master) WantsPacing() bool { return m.inner.WantsPacing() }

// AckCost implements CongestionControl.
func (m *Master) AckCost() float64 {
	if m.ov.DisableModel {
		return residualAckCost
	}
	return m.inner.AckCost()
}

// Init implements CongestionControl.
func (m *Master) Init(c Conn) {
	m.inner.Init(c)
	m.apply(c)
}

// OnAck implements CongestionControl: run the inner model unless disabled,
// then pin whatever is overridden.
func (m *Master) OnAck(c Conn, rs *RateSample) {
	if !m.ov.DisableModel {
		m.inner.OnAck(c, rs)
	}
	m.apply(c)
}

// OnEvent implements CongestionControl.
func (m *Master) OnEvent(c Conn, ev Event) {
	if !m.ov.DisableModel {
		m.inner.OnEvent(c, ev)
	}
	m.apply(c)
}

func (m *Master) apply(c Conn) {
	if m.ov.FixedCwnd > 0 {
		c.SetCwnd(m.ov.FixedCwnd)
	}
	if m.ov.FixedPacingRate > 0 {
		c.SetPacingRate(m.ov.FixedPacingRate)
	}
}
