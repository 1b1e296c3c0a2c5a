// Package bbrv2 implements BBR v2 congestion control, following Google's
// alpha (the code the paper backports to the Pixel 6 kernel, per the
// IETF-104/105/106 iccrg presentations): it keeps BBR v1's model-based
// pacing but adds loss-bounded operation — an inflight_hi ceiling learned
// from loss probes, an inflight_lo short-term bound after loss rounds, and
// an explicit PROBE_BW sub-state machine (DOWN → CRUISE → REFILL → UP) that
// probes for more bandwidth only every few seconds and backs off when the
// per-round loss rate exceeds ~2%.
package bbrv2

import (
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/slab"
)

// Phase is the v2 PROBE_BW sub-state.
type Phase int

// PROBE_BW phases.
const (
	PhaseDown Phase = iota
	PhaseCruise
	PhaseRefill
	PhaseUp
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseDown:
		return "DOWN"
	case PhaseCruise:
		return "CRUISE"
	case PhaseRefill:
		return "REFILL"
	case PhaseUp:
		return "UP"
	default:
		return "?"
	}
}

// BBRv2 constants (from the alpha defaults); the rest are v1's model's.
const (
	highGain  = 2.773 // 2/ln2 adjusted down in v2
	drainGain = 1.0 / highGain
	// lossThresh is the per-round loss rate that signals "too much"
	// (bbr_loss_thresh = 2%).
	lossThresh = 0.02
	// beta is the multiplicative back-off applied to inflight_hi on an
	// over-threshold loss round (0.7 in the alpha, i.e. cut 30%).
	beta = 0.7
	// headroom keeps inflight below inflight_hi in CRUISE
	// (bbr_inflight_headroom = 15%).
	headroom = 0.85
	// probeWaitBase / probeWaitRand bound the CRUISE dwell before the
	// next bandwidth probe (2–3 s wall-clock, per bbr_bw_probe_base_us).
	probeWaitBase = 2 * time.Second
	probeWaitRand = time.Second
	// ecnAlphaGain is the EWMA gain for the per-round CE fraction
	// (bbr_ecn_alpha_gain, 1/16).
	ecnAlphaGain = 1.0 / 16
	// ecnThresh is the per-round CE fraction treated as an over-limit
	// signal, like a lossy round (bbr_ecn_thresh, 50%).
	ecnThresh = 0.5
	// ecnFactor scales how much of ecnAlpha cuts inflight_lo each round
	// (bbr_ecn_factor, 1/3).
	ecnFactor = 1.0 / 3
	// ackCost: v2's per-ACK model is v1 plus loss-rate bookkeeping.
	ackCost = 2800
)

var pacingGainDown = 0.9
var pacingGainUp = 1.25

// BBRv2 is one connection's BBR v2 state: v1's model, and the alpha's
// loss-bounded state machine around it.
type BBRv2 struct {
	bbr.Model
	mode  bbr.Mode
	phase Phase

	pacingGain float64
	cwndGain   float64

	// Loss-bounded inflight model.
	inflightHi int // packets; 1<<30 = unknown
	inflightLo int // packets; 1<<30 = unbounded

	// Per-round loss and ECN accounting.
	roundLost      int64
	roundDelivered int64
	roundCE        int64
	ecnAlpha       float64

	probeWaitUntil time.Duration
	refillRound    uint64

	// modeListener, when set, observes every state-machine transition
	// (telemetry); labels include the PROBE_BW sub-phase. nil costs only a
	// nil-check per transition.
	modeListener func(old, new string)
}

const unbounded = 1 << 30

// New returns a fresh BBRv2 instance.
func New() *BBRv2 {
	b := fresh(bbr.NewModel())
	return &b
}

// fresh is the state of a new module around the model m: all New and
// Factory build, and, with m started over, all Init keeps.
func fresh(m bbr.Model) BBRv2 {
	return BBRv2{
		Model:      m,
		pacingGain: highGain,
		cwndGain:   highGain,
		inflightHi: unbounded,
		inflightLo: unbounded,
	}
}

// Factory returns a cc.Factory producing fresh BBRv2 instances from its own
// slab, so it belongs to one run (see cc.Factory).
func Factory() cc.Factory {
	var mods slab.Slab[BBRv2]
	return func() cc.CongestionControl {
		b := mods.Next()
		*b = fresh(bbr.NewModel())
		return b
	}
}

// Name implements cc.CongestionControl.
func (b *BBRv2) Name() string { return "bbr2" }

// WantsPacing implements cc.CongestionControl.
func (b *BBRv2) WantsPacing() bool { return true }

// AckCost implements cc.CongestionControl.
func (b *BBRv2) AckCost() float64 { return ackCost }

// Mode returns the top-level mode (for tests).
func (b *BBRv2) Mode() bbr.Mode { return b.mode }

// CurrentPhase returns the PROBE_BW sub-phase (for tests).
func (b *BBRv2) CurrentPhase() Phase { return b.phase }

// SetModeListener implements cc.ModeReporter.
func (b *BBRv2) SetModeListener(fn func(old, new string)) { b.modeListener = fn }

// probeBWLabels are the PROBE_BW labels by phase, so an observed transition
// builds no string.
var probeBWLabels = [...]string{
	PhaseDown:   "PROBE_BW/DOWN",
	PhaseCruise: "PROBE_BW/CRUISE",
	PhaseRefill: "PROBE_BW/REFILL",
	PhaseUp:     "PROBE_BW/UP",
}

// label is the externally visible state: the mode, with the sub-phase
// appended while cycling PROBE_BW (e.g. "PROBE_BW/CRUISE").
func (b *BBRv2) label() string {
	if b.mode != bbr.ProbeBW {
		return b.mode.String()
	}
	if uint(b.phase) < uint(len(probeBWLabels)) {
		return probeBWLabels[b.phase]
	}
	return b.mode.String() + "/" + b.phase.String()
}

// observe runs mutate and notifies the listener if the visible state-machine
// label changed. With no listener it is just mutate().
func (b *BBRv2) observe(mutate func()) {
	if b.modeListener == nil {
		mutate()
		return
	}
	old := b.label()
	mutate()
	if n := b.label(); n != old {
		b.modeListener(old, n)
	}
}

// Init implements cc.CongestionControl: everything but the configured
// min-RTT window starts over, the mode listener included.
func (b *BBRv2) Init(conn cc.Conn) {
	*b = fresh(b.Model)
	b.Model.Init(conn, highGain)
}

// OnAck implements cc.CongestionControl.
func (b *BBRv2) OnAck(conn cc.Conn, rs *cc.RateSample) {
	b.roundLost += rs.Losses
	b.roundDelivered += rs.AckedSacked
	b.roundCE += rs.CECount
	b.UpdateBandwidth(conn, rs)
	b.updateLossModel(conn, rs)
	b.CheckFullPipe(rs)
	b.checkDrain(conn)
	b.updateProbePhases(conn, rs)
	b.checkProbeRTT(conn, rs)
	b.SetPacingRate(conn, b.pacingGain)
	b.setCwnd(conn, rs)
}

// updateLossModel adjusts inflight_hi/lo from per-round loss rates: the
// core v2 addition.
func (b *BBRv2) updateLossModel(conn cc.Conn, rs *cc.RateSample) {
	if !b.RoundStart {
		return
	}
	total := b.roundDelivered + b.roundLost
	// ECN: update the CE-fraction EWMA and treat an over-threshold round
	// like a lossy one (bbr2_check_ecn_too_high).
	if b.roundDelivered > 0 {
		ceFrac := float64(b.roundCE) / float64(b.roundDelivered)
		if ceFrac > 1 {
			ceFrac = 1
		}
		b.ecnAlpha = (1-ecnAlphaGain)*b.ecnAlpha + ecnAlphaGain*ceFrac
	}
	ecnHigh := b.roundDelivered > 0 &&
		float64(b.roundCE)/float64(b.roundDelivered) > ecnThresh
	lossy := (total > 0 && float64(b.roundLost)/float64(total) > lossThresh) || ecnHigh
	if lossy {
		// Learn/shrink the ceiling from what was in flight.
		hi := int(float64(rs.PriorInFlight) * beta)
		if hi < bbr.MinCwndPackets {
			hi = bbr.MinCwndPackets
		}
		if hi < b.inflightHi || b.inflightHi == unbounded {
			b.inflightHi = hi
		}
		b.inflightLo = hi
		if b.mode == bbr.ProbeBW && b.phase == PhaseUp {
			b.observe(func() { b.enterPhase(conn, PhaseDown) })
		}
		if b.mode == bbr.Startup {
			b.FullPipe = true // excessive startup loss ends STARTUP
		}
	} else if b.inflightLo != unbounded {
		// Decay the short-term bound once losses stop.
		b.inflightLo += b.inflightLo / 8
		if b.inflightLo >= b.inflightHi {
			b.inflightLo = unbounded
		}
	}
	// A nonzero alpha trims the short-term bound each round
	// (bbr2_ecn_cut), steering inflight below the marking point.
	if b.ecnAlpha > 0.01 && b.inflightLo != unbounded {
		cut := int(float64(b.inflightLo) * (1 - b.ecnAlpha*ecnFactor))
		if cut < bbr.MinCwndPackets {
			cut = bbr.MinCwndPackets
		}
		if cut < b.inflightLo {
			b.inflightLo = cut
		}
	}
	b.roundLost = 0
	b.roundDelivered = 0
	b.roundCE = 0
}

func (b *BBRv2) checkDrain(conn cc.Conn) {
	if b.mode == bbr.Startup && b.FullPipe {
		b.observe(func() {
			b.mode = bbr.Drain
			b.pacingGain = drainGain
			b.cwndGain = highGain
		})
	}
	if b.mode == bbr.Drain && conn.PacketsInFlight() <= b.BDPPackets(conn, 1.0) {
		b.observe(func() { b.enterProbeBW(conn) })
	}
}

func (b *BBRv2) enterProbeBW(conn cc.Conn) {
	b.mode = bbr.ProbeBW
	b.cwndGain = bbr.CwndGain
	b.enterPhase(conn, PhaseDown)
}

func (b *BBRv2) enterPhase(conn cc.Conn, p Phase) {
	b.phase = p
	now := conn.Now()
	switch p {
	case PhaseDown:
		b.pacingGain = pacingGainDown
	case PhaseCruise:
		b.pacingGain = 1.0
		wait := probeWaitBase + time.Duration(conn.Rand().Int63n(int64(probeWaitRand)))
		b.probeWaitUntil = now + wait
	case PhaseRefill:
		b.pacingGain = 1.0
		b.inflightLo = unbounded
		b.refillRound = b.RoundCount
	case PhaseUp:
		b.pacingGain = pacingGainUp
	}
}

func (b *BBRv2) updateProbePhases(conn cc.Conn, rs *cc.RateSample) {
	if b.mode != bbr.ProbeBW {
		return
	}
	now := conn.Now()
	switch b.phase {
	case PhaseDown:
		target := b.targetInflight(conn)
		if conn.PacketsInFlight() <= target {
			b.observe(func() { b.enterPhase(conn, PhaseCruise) })
		}
	case PhaseCruise:
		if now >= b.probeWaitUntil {
			b.observe(func() { b.enterPhase(conn, PhaseRefill) })
		}
	case PhaseRefill:
		// One round of refilling the pipe, then probe up.
		if b.RoundCount > b.refillRound {
			b.observe(func() { b.enterPhase(conn, PhaseUp) })
		}
	case PhaseUp:
		// Grow until we hit the ceiling (or a lossy round knocks us
		// down in updateLossModel).
		if b.inflightHi != unbounded && rs.PriorInFlight >= b.inflightHi {
			b.observe(func() { b.enterPhase(conn, PhaseDown) })
		} else if b.MinRTT > 0 && rs.PriorInFlight >= b.BDPPackets(conn, 1.25) {
			b.observe(func() { b.enterPhase(conn, PhaseDown) })
		}
	}
}

// targetInflight is the CRUISE operating point: the BDP bounded by
// inflight_hi with headroom and by inflight_lo.
func (b *BBRv2) targetInflight(conn cc.Conn) int {
	t := b.BDPPackets(conn, 1.0)
	if b.inflightHi != unbounded {
		if hi := int(float64(b.inflightHi) * headroom); t > hi {
			t = hi
		}
	}
	if b.inflightLo != unbounded && t > b.inflightLo {
		t = b.inflightLo
	}
	if t < bbr.MinCwndPackets {
		t = bbr.MinCwndPackets
	}
	return t
}

// checkProbeRTT enters PROBE_RTT when the min-RTT estimate has gone stale
// and returns to PROBE_BW once the model's dwell at half a BDP is done.
func (b *BBRv2) checkProbeRTT(conn cc.Conn, rs *cc.RateSample) {
	if b.UpdateMinRTT(conn, rs) && b.mode != bbr.ProbeRTT && b.FullPipe {
		b.observe(func() {
			b.mode = bbr.ProbeRTT
			b.EnterProbeRTT(conn)
			b.pacingGain = 1.0
		})
	}
	if b.mode == bbr.ProbeRTT && b.ProbeRTTDone(conn, b.probeRTTCwnd(conn)) {
		b.observe(func() { b.enterProbeBW(conn) })
	}
}

// probeRTTCwnd: v2 drains to half the BDP rather than 4 packets.
func (b *BBRv2) probeRTTCwnd(conn cc.Conn) int {
	n := b.BDPPackets(conn, 0.5)
	if n < bbr.MinCwndPackets {
		n = bbr.MinCwndPackets
	}
	return n
}

func (b *BBRv2) setCwnd(conn cc.Conn, rs *cc.RateSample) {
	if b.mode == bbr.ProbeRTT {
		if w := b.probeRTTCwnd(conn); conn.Cwnd() > w {
			conn.SetCwnd(w)
		}
		return
	}
	target := b.BDPPackets(conn, b.cwndGain)
	// Apply the loss-learned bounds.
	if b.inflightHi != unbounded {
		bound := b.inflightHi
		if b.mode == bbr.ProbeBW && b.phase == PhaseCruise {
			bound = int(float64(b.inflightHi) * headroom)
		}
		if target > bound {
			target = bound
		}
	}
	if b.inflightLo != unbounded && target > b.inflightLo {
		target = b.inflightLo
	}
	b.GrowCwnd(conn, rs, target)
}
