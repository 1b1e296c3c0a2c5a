// Package bbr implements BBR v1 congestion control, a port of the Linux
// kernel's tcp_bbr.c: the sender models the path with a windowed-max
// bottleneck-bandwidth filter and a windowed-min propagation-delay filter,
// then sets both the pacing rate and cwnd from the model. The state machine
// is STARTUP → DRAIN → PROBE_BW (eight-phase gain cycling) with periodic
// PROBE_RTT excursions. BBR requires packet pacing — the property the paper
// shows is expensive on low-end phones.
package bbr

import (
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/slab"
	"mobbr/internal/stats"
	"mobbr/internal/units"
)

// Mode is the BBR state-machine mode.
type Mode int

// BBR modes.
const (
	// Startup grows quickly to find the bandwidth ceiling.
	Startup Mode = iota
	// Drain removes the queue Startup built.
	Drain
	// ProbeBW cycles pacing gains around the bandwidth estimate.
	ProbeBW
	// ProbeRTT periodically drains to re-measure propagation delay.
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

// BBR constants, matching tcp_bbr.c.
const (
	// highGain is 2/ln(2), the startup gain.
	highGain = 2.885
	// drainGain empties the startup queue.
	drainGain = 1.0 / highGain
	// cwndGainDefault provides headroom for delayed/aggregated ACKs.
	cwndGainDefault = 2.0
	// bwWindowRounds is the bandwidth max-filter length in packet-timed
	// round trips.
	bwWindowRounds = 10
	// minRTTWindow is the propagation-delay min-filter length.
	minRTTWindow = 10 * time.Second
	// probeRTTDuration is the time spent at minimal cwnd in PROBE_RTT.
	probeRTTDuration = 200 * time.Millisecond
	// minCwndPackets is the floor (4, to keep the ACK clock alive).
	minCwndPackets = 4
	// fullBWThresh declares the pipe full if bandwidth grew by less than
	// 25% across fullBWCount consecutive rounds.
	fullBWThresh = 1.25
	fullBWCount  = 3
	// pacingMargin shaves 1% off the pacing rate to avoid building a
	// queue from its own quantization (bbr_pacing_margin_percent).
	pacingMargin = 0.99
	// ackCost is BBR's per-ACK model cost in reference cycles: the full
	// bandwidth/min-RTT filter update, round accounting and gain logic
	// re-run on every acknowledgment (§5.1.1 of the paper).
	ackCost = 2400
)

// pacingGainCycle is the PROBE_BW gain sequence.
var pacingGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// BBR is one connection's BBR state.
type BBR struct {
	mode Mode

	// minRTTWindow is the propagation-delay filter length (10 s in the
	// kernel; simulations shorter than a few windows scale it down so
	// steady-state PROBE_RTT dynamics still occur).
	minRTTWindow time.Duration

	bwFilter   stats.WindowedMax // bytes/sec, over rounds
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
	b := fresh(minRTTWindow)
	return &b
}

// fresh is the state of a new module with the given min-RTT window: all New
// builds, and all Init keeps.
func fresh(window time.Duration) BBR {
	return BBR{
		minRTTWindow: window,
		bwFilter:     stats.NewWindowedMax(bwWindowRounds),
		pacingGain:   highGain,
		cwndGain:     highGain,
	}
}

// SetMinRTTWindow overrides the 10-second min-RTT filter window; the
// experiment harness scales it to a third of short simulated runs so the
// filter expires (and PROBE_RTT fires) a realistic number of times.
func (b *BBR) SetMinRTTWindow(d time.Duration) {
	if d > 0 {
		b.minRTTWindow = d
	}
}

// Factory returns a cc.Factory producing fresh BBR instances from its own
// slab, so it belongs to one run (see cc.Factory).
func Factory() cc.Factory {
	var mods slab.Slab[BBR]
	return func() cc.CongestionControl {
		b := mods.Next()
		*b = fresh(minRTTWindow)
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

// BtlBw returns the current bottleneck-bandwidth estimate.
func (b *BBR) BtlBw() units.Bandwidth {
	return units.Bandwidth(b.bwFilter.Get() * 8)
}

// Init implements cc.CongestionControl: everything but the configured
// min-RTT window starts over, the mode listener included, so a module reused
// for a new flow reports nothing of its previous one.
func (b *BBR) Init(conn cc.Conn) {
	*b = fresh(b.minRTTWindow)
	// Initial pacing rate from the initial window over a nominal 1 ms
	// until an RTT is measured (bbr_init_pacing_rate_from_rtt).
	rtt := conn.SRTT()
	if rtt <= 0 {
		rtt = time.Millisecond
	}
	bw := float64(conn.Cwnd()) * float64(conn.MSS()) / rtt.Seconds()
	conn.SetPacingRate(units.Bandwidth(bw * 8 * highGain))
}

// bdpPackets returns gain × BDP in packets (bbr_bdp).
func (b *BBR) bdpPackets(conn cc.Conn, gain float64) int {
	bw := b.bwFilter.Get() // bytes/sec
	if bw == 0 || b.minRTT <= 0 {
		return conn.Cwnd()
	}
	bdp := bw * b.minRTT.Seconds() / float64(conn.MSS())
	// Quantization budget (bbr_quantization_budget): three send quanta
	// of headroom so pacing in TSO-sized bursts never starves the cwnd.
	n := int(bdp*gain+0.5) + 3*tsoSegsGoal(conn)
	if n < minCwndPackets {
		n = minCwndPackets
	}
	return n
}

// tsoSegsGoal mirrors bbr_tso_segs_goal: the segments one autosized skb
// carries at the current pacing rate (~1 ms of data, floor 2, cap at the
// 64 KB GSO limit).
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

// OnAck implements cc.CongestionControl: the full bbr_main sequence.
func (b *BBR) OnAck(conn cc.Conn, rs *cc.RateSample) {
	b.updateRound(conn, rs)
	b.updateBandwidth(conn, rs)
	b.updateCyclePhase(conn, rs)
	b.checkFullPipe(rs)
	b.checkDrain(conn)
	b.updateMinRTT(conn, rs)
	b.setPacingRate(conn)
	b.setCwnd(conn, rs)
}

func (b *BBR) updateRound(conn cc.Conn, rs *cc.RateSample) {
	if rs.PriorDelivered >= b.nextRTTDel {
		b.nextRTTDel = conn.Delivered()
		b.roundCount++
		b.roundStart = true
	} else {
		b.roundStart = false
	}
}

func (b *BBR) updateBandwidth(conn cc.Conn, rs *cc.RateSample) {
	if !rs.Valid() {
		return
	}
	rate := float64(units.DataSize(rs.Delivered)*conn.MSS()) / rs.Interval.Seconds()
	// App-limited samples only count if they raise the estimate.
	if !rs.IsAppLimited || rate >= b.bwFilter.Get() {
		b.bwFilter.Update(b.roundCount, rate)
	}
}

func (b *BBR) checkFullPipe(rs *cc.RateSample) {
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

func (b *BBR) checkDrain(conn cc.Conn) {
	if b.mode == Startup && b.fullPipe {
		b.setMode(Drain)
		b.pacingGain = drainGain
		b.cwndGain = highGain
	}
	if b.mode == Drain && conn.PacketsInFlight() <= b.bdpPackets(conn, 1.0) {
		b.enterProbeBW(conn)
	}
}

func (b *BBR) enterProbeBW(conn cc.Conn) {
	b.setMode(ProbeBW)
	b.cwndGain = cwndGainDefault
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
	isFullLength := b.minRTT > 0 && now-b.cycleStamp > b.minRTT
	gain := pacingGainCycle[b.cycleIdx]
	advance := false
	switch {
	case gain == 1.0:
		advance = isFullLength
	case gain > 1.0:
		// Probe until the higher rate had a chance to fill the pipe or
		// caused losses.
		advance = isFullLength &&
			(rs.Losses > 0 || rs.PriorInFlight >= b.bdpPackets(conn, gain))
	default:
		// Drain phase ends early once inflight has fallen to the BDP.
		advance = isFullLength || rs.PriorInFlight <= b.bdpPackets(conn, 1.0)
	}
	if advance {
		b.cycleIdx = (b.cycleIdx + 1) % len(pacingGainCycle)
		b.cycleStamp = now
		b.pacingGain = pacingGainCycle[b.cycleIdx]
	}
}

func (b *BBR) updateMinRTT(conn cc.Conn, rs *cc.RateSample) {
	now := conn.Now()
	expired := b.minRTT > 0 && now-b.minRTTStamp > b.minRTTWindow
	if rs.RTT > 0 && (b.minRTT == 0 || rs.RTT <= b.minRTT || expired) {
		b.minRTT = rs.RTT
		b.minRTTStamp = now
	}
	// Enter PROBE_RTT when the estimate has gone stale.
	if expired && b.mode != ProbeRTT && b.fullPipe {
		b.setMode(ProbeRTT)
		b.priorCwnd = conn.Cwnd()
		b.probeRTTDoneAt = 0
		b.pacingGain = 1.0
		b.cwndGain = 1.0
	}
	if b.mode == ProbeRTT {
		b.handleProbeRTT(conn)
	}
}

func (b *BBR) handleProbeRTT(conn cc.Conn) {
	now := conn.Now()
	if b.probeRTTDoneAt == 0 && conn.PacketsInFlight() <= minCwndPackets {
		b.probeRTTDoneAt = now + probeRTTDuration
		b.probeRTTRound = conn.Delivered()
	}
	if b.probeRTTDoneAt != 0 && now > b.probeRTTDoneAt &&
		conn.Delivered() > b.probeRTTRound {
		b.minRTTStamp = now
		b.exitProbeRTT(conn)
	}
}

func (b *BBR) exitProbeRTT(conn cc.Conn) {
	if conn.Cwnd() < b.priorCwnd {
		conn.SetCwnd(b.priorCwnd)
	}
	if b.fullPipe {
		b.enterProbeBW(conn)
	} else {
		b.setMode(Startup)
		b.pacingGain = highGain
		b.cwndGain = highGain
	}
}

func (b *BBR) setPacingRate(conn cc.Conn) {
	bw := b.bwFilter.Get()
	if bw == 0 {
		return
	}
	rate := units.Bandwidth(bw * 8 * b.pacingGain * pacingMargin)
	// During startup keep the initial high rate until the filter warms
	// up (bbr only lowers the rate once the pipe is full).
	if b.fullPipe || rate > conn.PacingRate() {
		conn.SetPacingRate(rate)
	}
}

func (b *BBR) setCwnd(conn cc.Conn, rs *cc.RateSample) {
	if b.mode == ProbeRTT {
		if conn.Cwnd() > minCwndPackets {
			conn.SetCwnd(minCwndPackets)
		}
		return
	}
	target := b.bdpPackets(conn, b.cwndGain)
	cwnd := conn.Cwnd()
	acked := int(rs.AckedSacked)
	if b.fullPipe {
		if cwnd+acked < target {
			cwnd += acked
		} else {
			cwnd = target
		}
	} else {
		// Startup: grow by the amount delivered, never shrink.
		cwnd += acked
	}
	if cwnd < minCwndPackets {
		cwnd = minCwndPackets
	}
	conn.SetCwnd(cwnd)
}

// OnEvent implements cc.CongestionControl. BBR ignores loss as a congestion
// signal; it only preserves cwnd across RTO episodes (bbr_undo_cwnd-style).
func (b *BBR) OnEvent(conn cc.Conn, ev cc.Event) {
	switch ev {
	case cc.EventEnterLoss:
		b.priorCwnd = conn.Cwnd()
	case cc.EventExitRecovery:
		if b.priorCwnd > conn.Cwnd() {
			conn.SetCwnd(b.priorCwnd)
		}
	case cc.EventEnterRecovery, cc.EventECE:
		// Deliberately no reaction: BBR v1's model, not losses or ECN,
		// sets rates (v2 adds the ECN response).
	}
}
