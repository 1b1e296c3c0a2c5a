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
	"mobbr/internal/slab"
	"mobbr/internal/stats"
	"mobbr/internal/units"
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

// Mode is the top-level state, as in v1.
type Mode int

// Top-level modes.
const (
	Startup Mode = iota
	Drain
	ProbeBW
	ProbeRTT
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Startup:
		return "STARTUP"
	case Drain:
		return "DRAIN"
	case ProbeBW:
		return "PROBE_BW"
	case ProbeRTT:
		return "PROBE_RTT"
	default:
		return "?"
	}
}

// BBRv2 constants (from the alpha defaults).
const (
	highGain         = 2.773 // 2/ln2 adjusted down in v2
	drainGain        = 1.0 / highGain
	cwndGainDefault  = 2.0
	bwWindowRounds   = 10
	minRTTWindow     = 10 * time.Second
	probeRTTDuration = 200 * time.Millisecond
	minCwndPackets   = 4
	fullBWThresh     = 1.25
	fullBWCount      = 3
	pacingMargin     = 0.99
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

// BBRv2 is one connection's BBR v2 state.
type BBRv2 struct {
	mode  Mode
	phase Phase

	// minRTTWindow is the propagation-delay filter length (see the v1
	// package for why it is configurable).
	minRTTWindow time.Duration

	bwFilter   stats.WindowedMax
	roundCount uint64
	nextRTTDel int64
	roundStart bool

	minRTT      time.Duration
	minRTTStamp time.Duration

	probeRTTDoneAt time.Duration
	probeRTTRound  int64
	priorCwnd      int

	fullBW    float64
	fullBWCnt int
	fullPipe  bool

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
	b := fresh(minRTTWindow)
	return &b
}

// fresh is the state of a new module with the given min-RTT window: all New
// builds, and all Init keeps.
func fresh(window time.Duration) BBRv2 {
	return BBRv2{
		minRTTWindow: window,
		bwFilter:     stats.NewWindowedMax(bwWindowRounds),
		pacingGain:   highGain,
		cwndGain:     highGain,
		inflightHi:   unbounded,
		inflightLo:   unbounded,
	}
}

// SetMinRTTWindow overrides the 10-second min-RTT filter window for short
// simulated runs.
func (b *BBRv2) SetMinRTTWindow(d time.Duration) {
	if d > 0 {
		b.minRTTWindow = d
	}
}

// Factory returns a cc.Factory producing fresh BBRv2 instances from its own
// slab, so it belongs to one run (see cc.Factory).
func Factory() cc.Factory {
	var mods slab.Slab[BBRv2]
	return func() cc.CongestionControl {
		b := mods.Next()
		*b = fresh(minRTTWindow)
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
func (b *BBRv2) Mode() Mode { return b.mode }

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
	if b.mode != ProbeBW {
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
	*b = fresh(b.minRTTWindow)
	rtt := conn.SRTT()
	if rtt <= 0 {
		rtt = time.Millisecond
	}
	bw := float64(conn.Cwnd()) * float64(conn.MSS()) / rtt.Seconds()
	conn.SetPacingRate(units.Bandwidth(bw * 8 * highGain))
}

func (b *BBRv2) bdpPackets(conn cc.Conn, gain float64) int {
	bw := b.bwFilter.Get()
	if bw == 0 || b.minRTT <= 0 {
		return conn.Cwnd()
	}
	// Quantization budget, as in v1: three send quanta of headroom.
	n := int(bw*b.minRTT.Seconds()/float64(conn.MSS())*gain+0.5) + 3*tsoSegsGoal(conn)
	if n < minCwndPackets {
		n = minCwndPackets
	}
	return n
}

// tsoSegsGoal mirrors bbr_tso_segs_goal (see the v1 package).
func tsoSegsGoal(conn cc.Conn) int {
	bytes := float64(conn.PacingRate()) / 8 * 1e-3
	segs := int(bytes / float64(conn.MSS()))
	if segs < 2 {
		segs = 2
	}
	if max := int(64 * 1024 / conn.MSS()); segs > max {
		segs = max
	}
	return segs
}

// OnAck implements cc.CongestionControl.
func (b *BBRv2) OnAck(conn cc.Conn, rs *cc.RateSample) {
	b.updateRound(conn, rs)
	b.updateBandwidth(conn, rs)
	b.updateLossModel(conn, rs)
	b.checkFullPipe(conn, rs)
	b.checkDrain(conn)
	b.updateProbePhases(conn, rs)
	b.updateMinRTT(conn, rs)
	b.setPacingRate(conn)
	b.setCwnd(conn, rs)
}

func (b *BBRv2) updateRound(conn cc.Conn, rs *cc.RateSample) {
	b.roundLost += rs.Losses
	b.roundDelivered += rs.AckedSacked
	b.roundCE += rs.CECount
	if rs.PriorDelivered >= b.nextRTTDel {
		b.nextRTTDel = conn.Delivered()
		b.roundCount++
		b.roundStart = true
	} else {
		b.roundStart = false
	}
}

func (b *BBRv2) updateBandwidth(conn cc.Conn, rs *cc.RateSample) {
	if !rs.Valid() {
		return
	}
	rate := float64(units.DataSize(rs.Delivered)*conn.MSS()) / rs.Interval.Seconds()
	if !rs.IsAppLimited || rate >= b.bwFilter.Get() {
		b.bwFilter.Update(b.roundCount, rate)
	}
}

// updateLossModel adjusts inflight_hi/lo from per-round loss rates: the
// core v2 addition.
func (b *BBRv2) updateLossModel(conn cc.Conn, rs *cc.RateSample) {
	if !b.roundStart {
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
		if hi < minCwndPackets {
			hi = minCwndPackets
		}
		if hi < b.inflightHi || b.inflightHi == unbounded {
			b.inflightHi = hi
		}
		b.inflightLo = hi
		if b.mode == ProbeBW && b.phase == PhaseUp {
			b.observe(func() { b.enterPhase(conn, PhaseDown) })
		}
		if b.mode == Startup {
			b.fullPipe = true // excessive startup loss ends STARTUP
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
		if cut < minCwndPackets {
			cut = minCwndPackets
		}
		if cut < b.inflightLo {
			b.inflightLo = cut
		}
	}
	b.roundLost = 0
	b.roundDelivered = 0
	b.roundCE = 0
}

func (b *BBRv2) checkFullPipe(conn cc.Conn, rs *cc.RateSample) {
	if b.fullPipe || !b.roundStart || rs.IsAppLimited {
		return
	}
	bw := b.bwFilter.Get()
	if bw >= b.fullBW*fullBWThresh {
		b.fullBW = bw
		b.fullBWCnt = 0
		return
	}
	b.fullBWCnt++
	if b.fullBWCnt >= fullBWCount {
		b.fullPipe = true
	}
}

func (b *BBRv2) checkDrain(conn cc.Conn) {
	if b.mode == Startup && b.fullPipe {
		b.observe(func() {
			b.mode = Drain
			b.pacingGain = drainGain
			b.cwndGain = highGain
		})
	}
	if b.mode == Drain && conn.PacketsInFlight() <= b.bdpPackets(conn, 1.0) {
		b.observe(func() {
			b.mode = ProbeBW
			b.cwndGain = cwndGainDefault
			b.enterPhase(conn, PhaseDown)
		})
	}
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
		b.refillRound = b.roundCount
	case PhaseUp:
		b.pacingGain = pacingGainUp
	}
}

func (b *BBRv2) updateProbePhases(conn cc.Conn, rs *cc.RateSample) {
	if b.mode != ProbeBW {
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
		if b.roundCount > b.refillRound {
			b.observe(func() { b.enterPhase(conn, PhaseUp) })
		}
	case PhaseUp:
		// Grow until we hit the ceiling (or a lossy round knocks us
		// down in updateLossModel).
		if b.inflightHi != unbounded && rs.PriorInFlight >= b.inflightHi {
			b.observe(func() { b.enterPhase(conn, PhaseDown) })
		} else if b.minRTT > 0 && rs.PriorInFlight >= b.bdpPackets(conn, 1.25) {
			b.observe(func() { b.enterPhase(conn, PhaseDown) })
		}
	}
}

// targetInflight is the CRUISE operating point: the BDP bounded by
// inflight_hi with headroom and by inflight_lo.
func (b *BBRv2) targetInflight(conn cc.Conn) int {
	t := b.bdpPackets(conn, 1.0)
	if b.inflightHi != unbounded {
		if hi := int(float64(b.inflightHi) * headroom); t > hi {
			t = hi
		}
	}
	if b.inflightLo != unbounded && t > b.inflightLo {
		t = b.inflightLo
	}
	if t < minCwndPackets {
		t = minCwndPackets
	}
	return t
}

func (b *BBRv2) updateMinRTT(conn cc.Conn, rs *cc.RateSample) {
	now := conn.Now()
	expired := b.minRTT > 0 && now-b.minRTTStamp > b.minRTTWindow
	if rs.RTT > 0 && (b.minRTT == 0 || rs.RTT <= b.minRTT || expired) {
		b.minRTT = rs.RTT
		b.minRTTStamp = now
	}
	if expired && b.mode != ProbeRTT && b.fullPipe {
		b.observe(func() {
			b.mode = ProbeRTT
			b.priorCwnd = conn.Cwnd()
			b.probeRTTDoneAt = 0
			b.pacingGain = 1.0
		})
	}
	if b.mode == ProbeRTT {
		if b.probeRTTDoneAt == 0 && conn.PacketsInFlight() <= b.probeRTTCwnd(conn) {
			b.probeRTTDoneAt = now + probeRTTDuration
			b.probeRTTRound = conn.Delivered()
		}
		if b.probeRTTDoneAt != 0 && now > b.probeRTTDoneAt && conn.Delivered() > b.probeRTTRound {
			b.minRTTStamp = now
			if conn.Cwnd() < b.priorCwnd {
				conn.SetCwnd(b.priorCwnd)
			}
			b.observe(func() {
				b.mode = ProbeBW
				b.cwndGain = cwndGainDefault
				b.enterPhase(conn, PhaseDown)
			})
		}
	}
}

// probeRTTCwnd: v2 drains to half the BDP rather than 4 packets.
func (b *BBRv2) probeRTTCwnd(conn cc.Conn) int {
	n := b.bdpPackets(conn, 0.5)
	if n < minCwndPackets {
		n = minCwndPackets
	}
	return n
}

func (b *BBRv2) setPacingRate(conn cc.Conn) {
	bw := b.bwFilter.Get()
	if bw == 0 {
		return
	}
	rate := units.Bandwidth(bw * 8 * b.pacingGain * pacingMargin)
	if b.fullPipe || rate > conn.PacingRate() {
		conn.SetPacingRate(rate)
	}
}

func (b *BBRv2) setCwnd(conn cc.Conn, rs *cc.RateSample) {
	if b.mode == ProbeRTT {
		if w := b.probeRTTCwnd(conn); conn.Cwnd() > w {
			conn.SetCwnd(w)
		}
		return
	}
	target := b.bdpPackets(conn, b.cwndGain)
	// Apply the loss-learned bounds.
	if b.inflightHi != unbounded {
		bound := b.inflightHi
		if b.mode == ProbeBW && b.phase == PhaseCruise {
			bound = int(float64(b.inflightHi) * headroom)
		}
		if target > bound {
			target = bound
		}
	}
	if b.inflightLo != unbounded && target > b.inflightLo {
		target = b.inflightLo
	}
	cwnd := conn.Cwnd()
	acked := int(rs.AckedSacked)
	if b.fullPipe {
		if cwnd+acked < target {
			cwnd += acked
		} else {
			cwnd = target
		}
	} else {
		cwnd += acked
	}
	if cwnd < minCwndPackets {
		cwnd = minCwndPackets
	}
	conn.SetCwnd(cwnd)
}

// OnEvent implements cc.CongestionControl.
func (b *BBRv2) OnEvent(conn cc.Conn, ev cc.Event) {
	switch ev {
	case cc.EventEnterLoss:
		b.priorCwnd = conn.Cwnd()
	case cc.EventExitRecovery:
		if b.priorCwnd > conn.Cwnd() {
			conn.SetCwnd(b.priorCwnd)
		}
	case cc.EventEnterRecovery:
		// Loss reaction happens per-round in updateLossModel.
	}
}
