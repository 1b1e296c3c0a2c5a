package bbr

import (
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/stats"
	"mobbr/internal/units"
)

// Mode is the BBR state-machine mode, the same four in v1 and v2.
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

// Model constants, matching tcp_bbr.c; the v2 alpha keeps them all.
const (
	// CwndGain is the PROBE_BW cwnd gain: headroom for delayed and
	// aggregated ACKs.
	CwndGain = 2.0
	// MinCwndPackets is the cwnd floor (4, to keep the ACK clock alive).
	MinCwndPackets = 4
	// bwWindowRounds is the bandwidth max-filter length in packet-timed
	// round trips.
	bwWindowRounds = 10
	// minRTTWindow is the propagation-delay min-filter length.
	minRTTWindow = 10 * time.Second
	// probeRTTDuration is the time spent at the PROBE_RTT cwnd.
	probeRTTDuration = 200 * time.Millisecond
	// fullBWThresh declares the pipe full if bandwidth grew by less than
	// 25% across fullBWCount consecutive rounds.
	fullBWThresh = 1.25
	fullBWCount  = 3
	// pacingMargin shaves 1% off the pacing rate to avoid building a
	// queue from its own quantization (bbr_pacing_margin_percent).
	pacingMargin = 0.99
)

// Model is the path model both BBR versions run: a windowed-max
// bottleneck-bandwidth filter over packet-timed rounds with full-pipe
// detection, a windowed-min propagation-delay filter with PROBE_RTT's
// timing, and the steps that turn the model into a pacing rate and a cwnd.
// Each version embeds it and runs its own state machine around it, passing
// in its gains and cwnd target; the model never asks which version it
// serves.
type Model struct {
	// RoundCount counts packet-timed round trips; RoundStart is set on the
	// ACK that begins one.
	RoundCount uint64
	RoundStart bool
	// FullPipe latches once the bandwidth estimate stops growing (or a
	// version decides STARTUP is over for its own reasons).
	FullPipe bool
	// MinRTT is the propagation-delay estimate, 0 until the first sample.
	MinRTT time.Duration

	// minRTTWindow is the propagation-delay filter length (10 s in the
	// kernel; simulations shorter than a few windows scale it down so
	// steady-state PROBE_RTT dynamics still occur).
	minRTTWindow time.Duration
	minRTTStamp  time.Duration

	bwFilter   stats.WindowedMax // bytes/sec, over rounds
	nextRTTDel int64
	fullBW     float64
	fullBWCnt  int

	probeRTTDoneAt time.Duration
	probeRTTRound  int64
	priorCwnd      int
}

// NewModel returns a new flow's model with the kernel's 10-second min-RTT
// window.
func NewModel() Model { return newModel(minRTTWindow) }

func newModel(window time.Duration) Model {
	return Model{minRTTWindow: window, bwFilter: stats.NewWindowedMax(bwWindowRounds)}
}

// Init starts the model over for a new flow, keeping only its configured
// min-RTT window, and sets the initial pacing rate: the initial window over
// a nominal 1 ms until an RTT is measured (bbr_init_pacing_rate_from_rtt),
// at the version's startup gain.
func (m *Model) Init(conn cc.Conn, highGain float64) {
	*m = newModel(m.minRTTWindow)
	rtt := conn.SRTT()
	if rtt <= 0 {
		rtt = time.Millisecond
	}
	bw := float64(conn.Cwnd()) * float64(conn.MSS()) / rtt.Seconds()
	conn.SetPacingRate(units.Bandwidth(bw * 8 * highGain))
}

// SetMinRTTWindow overrides the 10-second min-RTT filter window; the
// experiment harness scales it to a third of short simulated runs so the
// filter expires (and PROBE_RTT fires) a realistic number of times.
func (m *Model) SetMinRTTWindow(d time.Duration) {
	if d > 0 {
		m.minRTTWindow = d
	}
}

// BtlBw returns the current bottleneck-bandwidth estimate.
func (m *Model) BtlBw() units.Bandwidth {
	return units.Bandwidth(m.bwFilter.Get() * 8)
}

// BDPPackets returns gain × BDP in packets (bbr_bdp), or the current cwnd
// while the model has no estimate.
func (m *Model) BDPPackets(conn cc.Conn, gain float64) int {
	bw := m.bwFilter.Get() // bytes/sec
	if bw == 0 || m.MinRTT <= 0 {
		return conn.Cwnd()
	}
	// Quantization budget (bbr_quantization_budget): three send quanta of
	// headroom so pacing in TSO-sized bursts never starves the cwnd.
	n := int(bw*m.MinRTT.Seconds()/float64(conn.MSS())*gain+0.5) + 3*tsoSegsGoal(conn)
	if n < MinCwndPackets {
		n = MinCwndPackets
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

// UpdateBandwidth advances the round counter and feeds the sample's
// delivery rate to the max filter; app-limited samples only count if they
// raise the estimate.
func (m *Model) UpdateBandwidth(conn cc.Conn, rs *cc.RateSample) {
	m.RoundStart = rs.PriorDelivered >= m.nextRTTDel
	if m.RoundStart {
		m.nextRTTDel = conn.Delivered()
		m.RoundCount++
	}
	if !rs.Valid() {
		return
	}
	rate := float64(units.DataSize(rs.Delivered)*conn.MSS()) / rs.Interval.Seconds()
	if !rs.IsAppLimited || rate >= m.bwFilter.Get() {
		m.bwFilter.Update(m.RoundCount, rate)
	}
}

// CheckFullPipe sets FullPipe once the estimate has grown by less than 25%
// for three rounds in a row.
func (m *Model) CheckFullPipe(rs *cc.RateSample) {
	if m.FullPipe || !m.RoundStart || rs.IsAppLimited {
		return
	}
	bw := m.bwFilter.Get()
	if bw >= m.fullBW*fullBWThresh {
		m.fullBW = bw
		m.fullBWCnt = 0
		return
	}
	m.fullBWCnt++
	if m.fullBWCnt >= fullBWCount {
		m.FullPipe = true
	}
}

// UpdateMinRTT feeds the sample's RTT to the min filter and reports whether
// the estimate had gone stale, which is when a version enters PROBE_RTT.
func (m *Model) UpdateMinRTT(conn cc.Conn, rs *cc.RateSample) (expired bool) {
	now := conn.Now()
	expired = m.MinRTT > 0 && now-m.minRTTStamp > m.minRTTWindow
	if rs.RTT > 0 && (m.MinRTT == 0 || rs.RTT <= m.MinRTT || expired) {
		m.MinRTT = rs.RTT
		m.minRTTStamp = now
	}
	return expired
}

// EnterProbeRTT saves the cwnd PROBE_RTT restores and arms its timing.
func (m *Model) EnterProbeRTT(conn cc.Conn) {
	m.priorCwnd = conn.Cwnd()
	m.probeRTTDoneAt = 0
}

// ProbeRTTDone runs PROBE_RTT's timing, once per ACK while in it: the dwell
// starts when inflight has fallen to floor and ends after probeRTTDuration
// and at least one round. At the end it restamps the min-RTT filter,
// restores the cwnd saved on entry and returns true; the version then
// leaves PROBE_RTT.
func (m *Model) ProbeRTTDone(conn cc.Conn, floor int) bool {
	now := conn.Now()
	if m.probeRTTDoneAt == 0 && conn.PacketsInFlight() <= floor {
		m.probeRTTDoneAt = now + probeRTTDuration
		m.probeRTTRound = conn.Delivered()
	}
	if m.probeRTTDoneAt == 0 || now <= m.probeRTTDoneAt || conn.Delivered() <= m.probeRTTRound {
		return false
	}
	m.minRTTStamp = now
	if conn.Cwnd() < m.priorCwnd {
		conn.SetCwnd(m.priorCwnd)
	}
	return true
}

// SetPacingRate paces at gain × the estimate, less the margin. During
// startup it keeps the initial high rate until the filter warms up (bbr
// only lowers the rate once the pipe is full).
func (m *Model) SetPacingRate(conn cc.Conn, gain float64) {
	bw := m.bwFilter.Get()
	if bw == 0 {
		return
	}
	rate := units.Bandwidth(bw * 8 * gain * pacingMargin)
	if m.FullPipe || rate > conn.PacingRate() {
		conn.SetPacingRate(rate)
	}
}

// GrowCwnd grows cwnd by the packets the ACK delivered: toward target once
// the pipe is full, without bound (never shrinking) before.
func (m *Model) GrowCwnd(conn cc.Conn, rs *cc.RateSample, target int) {
	cwnd := conn.Cwnd()
	acked := int(rs.AckedSacked)
	if m.FullPipe {
		if cwnd+acked < target {
			cwnd += acked
		} else {
			cwnd = target
		}
	} else {
		cwnd += acked
	}
	if cwnd < MinCwndPackets {
		cwnd = MinCwndPackets
	}
	conn.SetCwnd(cwnd)
}

// OnEvent is both versions' cc.CongestionControl.OnEvent. Neither takes
// loss events as a congestion signal (v1 ignores loss and ECN; v2 reacts
// per round from its own accounting); both preserve cwnd across RTO
// episodes (bbr_undo_cwnd-style).
func (m *Model) OnEvent(conn cc.Conn, ev cc.Event) {
	switch ev {
	case cc.EventEnterLoss:
		m.priorCwnd = conn.Cwnd()
	case cc.EventExitRecovery:
		if m.priorCwnd > conn.Cwnd() {
			conn.SetCwnd(m.priorCwnd)
		}
	}
}
