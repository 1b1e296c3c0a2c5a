// Package bbr implements BBR v1 congestion control, a port of the Linux
// kernel's tcp_bbr.c: the sender models the path with a windowed-max
// bottleneck-bandwidth filter and a windowed-min propagation-delay filter,
// then sets both the pacing rate and cwnd from the model. The state machine
// is STARTUP → DRAIN → PROBE_BW (eight-phase gain cycling) with periodic
// PROBE_RTT excursions. BBR requires packet pacing — the property the paper
// shows is expensive on low-end phones.
//
// The model (model.go) is shared: package bbrv2 embeds the same Model and
// runs its own state machine around it.
package bbr

import (
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/slab"
)

// BBR v1 constants, matching tcp_bbr.c; the rest are the model's.
const (
	// highGain is 2/ln(2), the startup gain.
	highGain = 2.885
	// drainGain empties the startup queue.
	drainGain = 1.0 / highGain
	// ackCost is BBR's per-ACK model cost in reference cycles: the full
	// bandwidth/min-RTT filter update, round accounting and gain logic
	// re-run on every acknowledgment (§5.1.1 of the paper).
	ackCost = 2400
)

// pacingGainCycle is the PROBE_BW gain sequence.
var pacingGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// BBR is one connection's BBR state: the shared model and v1's state
// machine around it.
type BBR struct {
	Model
	mode Mode

	cycleIdx   int
	cycleStamp time.Duration

	pacingGain float64
	cwndGain   float64

	// modeListener, when set, observes every state-machine transition
	// (telemetry). nil costs only a nil-check per transition.
	modeListener func(old, new string)
}

// New returns a fresh BBR instance.
func New() *BBR {
	b := fresh(NewModel())
	return &b
}

// fresh is the state of a new module around the model m: all New and
// Factory build, and, with m started over, all Init keeps.
func fresh(m Model) BBR {
	return BBR{Model: m, pacingGain: highGain, cwndGain: highGain}
}

// Factory returns a cc.Factory producing fresh BBR instances from its own
// slab, so it belongs to one run (see cc.Factory).
func Factory() cc.Factory {
	var mods slab.Slab[BBR]
	return func() cc.CongestionControl {
		b := mods.Next()
		*b = fresh(NewModel())
		return b
	}
}

// Name implements cc.CongestionControl.
func (b *BBR) Name() string { return "bbr" }

// WantsPacing implements cc.CongestionControl: BBR requires pacing.
func (b *BBR) WantsPacing() bool { return true }

// AckCost implements cc.CongestionControl.
func (b *BBR) AckCost() float64 { return ackCost }

// Mode returns the current state-machine mode (for tests and tracing).
func (b *BBR) Mode() Mode { return b.mode }

// SetModeListener implements cc.ModeReporter.
func (b *BBR) SetModeListener(fn func(old, new string)) { b.modeListener = fn }

// setMode transitions the state machine, notifying the listener.
func (b *BBR) setMode(m Mode) {
	if m == b.mode {
		return
	}
	old := b.mode
	b.mode = m
	if b.modeListener != nil {
		b.modeListener(old.String(), m.String())
	}
}

// Init implements cc.CongestionControl: everything but the configured
// min-RTT window starts over, the mode listener included, so a module reused
// for a new flow reports nothing of its previous one.
func (b *BBR) Init(conn cc.Conn) {
	*b = fresh(b.Model)
	b.Model.Init(conn, highGain)
}

// OnAck implements cc.CongestionControl: the full bbr_main sequence.
func (b *BBR) OnAck(conn cc.Conn, rs *cc.RateSample) {
	b.UpdateBandwidth(conn, rs)
	b.updateCyclePhase(conn, rs)
	b.CheckFullPipe(rs)
	b.checkDrain(conn)
	b.checkProbeRTT(conn, rs)
	b.SetPacingRate(conn, b.pacingGain)
	b.setCwnd(conn, rs)
}

func (b *BBR) checkDrain(conn cc.Conn) {
	if b.mode == Startup && b.FullPipe {
		b.setMode(Drain)
		b.pacingGain = drainGain
		b.cwndGain = highGain
	}
	if b.mode == Drain && conn.PacketsInFlight() <= b.BDPPackets(conn, 1.0) {
		b.enterProbeBW(conn)
	}
}

func (b *BBR) enterProbeBW(conn cc.Conn) {
	b.setMode(ProbeBW)
	b.cwndGain = CwndGain
	// Start anywhere in the cycle except the 0.75 phase (bbr picks a
	// random phase for fleet-wide decorrelation).
	idx := conn.Rand().Intn(len(pacingGainCycle) - 1)
	if idx >= 1 {
		idx++
	}
	b.cycleIdx = idx
	b.cycleStamp = conn.Now()
	b.pacingGain = pacingGainCycle[b.cycleIdx]
}

func (b *BBR) updateCyclePhase(conn cc.Conn, rs *cc.RateSample) {
	if b.mode != ProbeBW {
		return
	}
	now := conn.Now()
	isFullLength := b.MinRTT > 0 && now-b.cycleStamp > b.MinRTT
	gain := pacingGainCycle[b.cycleIdx]
	advance := false
	switch {
	case gain == 1.0:
		advance = isFullLength
	case gain > 1.0:
		// Probe until the higher rate had a chance to fill the pipe or
		// caused losses.
		advance = isFullLength &&
			(rs.Losses > 0 || rs.PriorInFlight >= b.BDPPackets(conn, gain))
	default:
		// Drain phase ends early once inflight has fallen to the BDP.
		advance = isFullLength || rs.PriorInFlight <= b.BDPPackets(conn, 1.0)
	}
	if advance {
		b.cycleIdx = (b.cycleIdx + 1) % len(pacingGainCycle)
		b.cycleStamp = now
		b.pacingGain = pacingGainCycle[b.cycleIdx]
	}
}

// checkProbeRTT enters PROBE_RTT when the min-RTT estimate has gone stale
// and leaves it once the model's dwell is done.
func (b *BBR) checkProbeRTT(conn cc.Conn, rs *cc.RateSample) {
	if b.UpdateMinRTT(conn, rs) && b.mode != ProbeRTT && b.FullPipe {
		b.setMode(ProbeRTT)
		b.EnterProbeRTT(conn)
		b.pacingGain = 1.0
		b.cwndGain = 1.0
	}
	// Only a full pipe enters PROBE_RTT, and it never unlatches, so the
	// flow always returns to PROBE_BW.
	if b.mode == ProbeRTT && b.ProbeRTTDone(conn, MinCwndPackets) {
		b.enterProbeBW(conn)
	}
}

func (b *BBR) setCwnd(conn cc.Conn, rs *cc.RateSample) {
	if b.mode == ProbeRTT {
		if conn.Cwnd() > MinCwndPackets {
			conn.SetCwnd(MinCwndPackets)
		}
		return
	}
	b.GrowCwnd(conn, rs, b.BDPPackets(conn, b.cwndGain))
}
