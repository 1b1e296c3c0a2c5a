// Package cubic implements CUBIC congestion control, a port of the Linux
// kernel's tcp_cubic.c (the Android default the paper compares BBR against):
// cubic window growth around the last-known saturation point W_max, fast
// convergence, TCP(Reno)-friendliness, and HyStart slow-start exit. CUBIC
// does not pace (WantsPacing is false) and its per-ACK work is a cheap AIMD
// step, which is exactly why it sidesteps the paper's pacing bottleneck.
package cubic

import (
	"math"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/slab"
)

// CUBIC constants, matching tcp_cubic.c defaults.
const (
	// beta is the multiplicative-decrease factor (717/1024 in the kernel).
	beta = 717.0 / 1024.0
	// c is the cubic scaling constant.
	c = 0.4
	// fastConvergence enables W_max reduction when losses recur.
	fastConvergence = true
	// ackCost is CUBIC's per-ACK model work in reference CPU cycles — a
	// handful of integer operations and one table-free cube root.
	ackCost = 450
)

// HyStart constants.
const (
	hystartLowWindow   = 16 // packets; below this stay in plain slow start
	hystartMinSamples  = 8
	hystartAckDelta    = 2 * time.Millisecond
	hystartDelayMinCap = 4 * time.Millisecond
	hystartDelayMaxCap = 16 * time.Millisecond
)

// Cubic is one connection's CUBIC state (struct bictcp).
type Cubic struct {
	wMax       float64 // last maximum cwnd (packets)
	k          float64 // time to reach wMax (seconds)
	origin     float64
	epochStart time.Duration // -1 when unset
	ackCnt     float64       // acks since epoch, for Reno estimate
	tcpCwnd    float64       // Reno-friendliness estimate
	cwndCnt    float64       // fractional cwnd accumulator
	cnt        float64       // acks per cwnd increment
	hystartOn  bool
	roundStart time.Duration
	lastAck    time.Duration
	currRTT    time.Duration
	sampleCnt  int
	foundExit  bool
	delayMin   time.Duration
}

// New returns a CUBIC instance with HyStart enabled, as in the kernel.
func New() *Cubic { return &Cubic{} }

// Factory returns a cc.Factory producing fresh CUBIC instances from its own
// slab, so it belongs to one run (see cc.Factory).
func Factory() cc.Factory {
	var mods slab.Slab[Cubic]
	return func() cc.CongestionControl { return mods.Next() }
}

// Name implements cc.CongestionControl.
func (cu *Cubic) Name() string { return "cubic" }

// WantsPacing implements cc.CongestionControl: CUBIC does not pace.
func (cu *Cubic) WantsPacing() bool { return false }

// AckCost implements cc.CongestionControl.
func (cu *Cubic) AckCost() float64 { return ackCost }

// Init implements cc.CongestionControl: every field starts over, HyStart's
// round sampling and the loss-epoch count included.
func (cu *Cubic) Init(conn cc.Conn) {
	*cu = Cubic{epochStart: -1, hystartOn: true}
}

// OnAck implements cc.CongestionControl: slow start with HyStart checks,
// then cubic congestion avoidance.
func (cu *Cubic) OnAck(conn cc.Conn, rs *cc.RateSample) {
	if rs.RTT > 0 {
		if cu.delayMin == 0 || rs.RTT < cu.delayMin {
			cu.delayMin = rs.RTT
		}
	}
	if conn.State() != cc.StateOpen {
		// No growth during recovery/loss (PRR omitted: the window was
		// set at the loss event).
		return
	}
	acked := int(rs.AckedSacked)
	if acked <= 0 {
		return
	}
	// Only grow when the window is actually the limit.
	if !conn.IsCwndLimited() {
		return
	}
	cwnd := conn.Cwnd()
	if cwnd < conn.Ssthresh() {
		cu.hystartUpdate(conn, rs)
		conn.SetCwnd(cwnd + acked)
		return
	}
	cu.update(conn, acked)
}

// update is bictcp_update + tcp_cong_avoid_ai.
func (cu *Cubic) update(conn cc.Conn, acked int) {
	now := conn.Now()
	cwnd := float64(conn.Cwnd())
	cu.ackCnt += float64(acked)
	if cu.epochStart < 0 {
		cu.epochStart = now
		cu.ackCnt = float64(acked)
		cu.tcpCwnd = cwnd
		if cwnd < cu.wMax {
			cu.k = math.Cbrt((cu.wMax - cwnd) / c)
			cu.origin = cu.wMax
		} else {
			cu.k = 0
			cu.origin = cwnd
		}
	}
	t := (now - cu.epochStart + cu.delayMin).Seconds()
	target := cu.origin + c*math.Pow(t-cu.k, 3)
	if target > cwnd {
		cu.cnt = cwnd / (target - cwnd)
	} else {
		cu.cnt = 100 * cwnd // effectively hold
	}
	// TCP (Reno) friendliness: never grow slower than an AIMD flow.
	delta := cwnd / (3 * (1/(1-beta) - 1) / (1 + 1/(1-beta))) // simplified kernel constant
	for cu.ackCnt > delta {
		cu.ackCnt -= delta
		cu.tcpCwnd++
	}
	if cu.tcpCwnd > cwnd {
		if maxCnt := cwnd / (cu.tcpCwnd - cwnd); cu.cnt > maxCnt {
			cu.cnt = maxCnt
		}
	}
	if cu.cnt < 2 {
		cu.cnt = 2
	}
	cu.cwndCnt += float64(acked)
	if cu.cwndCnt >= cu.cnt {
		inc := int(cu.cwndCnt / cu.cnt)
		cu.cwndCnt -= float64(inc) * cu.cnt
		conn.SetCwnd(conn.Cwnd() + inc)
	}
}

// hystartUpdate implements the delay-increase and ACK-train heuristics that
// end slow start before the first loss.
func (cu *Cubic) hystartUpdate(conn cc.Conn, rs *cc.RateSample) {
	if !cu.hystartOn || cu.foundExit || conn.Cwnd() < hystartLowWindow {
		return
	}
	now := conn.Now()
	srtt := conn.SRTT()
	// New round: reset per-round sampling roughly every RTT.
	if cu.roundStart == 0 || now-cu.roundStart > srtt {
		cu.roundStart = now
		cu.currRTT = 0
		cu.sampleCnt = 0
		cu.lastAck = now
	}
	// ACK train: closely spaced acks spanning ~ delayMin/2 from round start.
	if now-cu.lastAck < hystartAckDelta {
		cu.lastAck = now
		if cu.delayMin > 0 && now-cu.roundStart > cu.delayMin/2 {
			cu.exitSlowStart(conn)
			return
		}
	}
	// Delay increase: the round's min RTT exceeding delayMin + threshold.
	if rs.RTT > 0 && cu.sampleCnt < hystartMinSamples {
		cu.sampleCnt++
		if cu.currRTT == 0 || rs.RTT < cu.currRTT {
			cu.currRTT = rs.RTT
		}
		if cu.sampleCnt == hystartMinSamples && cu.delayMin > 0 {
			thresh := cu.delayMin / 8
			if thresh < hystartDelayMinCap {
				thresh = hystartDelayMinCap
			}
			if thresh > hystartDelayMaxCap {
				thresh = hystartDelayMaxCap
			}
			if cu.currRTT >= cu.delayMin+thresh {
				cu.exitSlowStart(conn)
			}
		}
	}
}

func (cu *Cubic) exitSlowStart(conn cc.Conn) {
	cu.foundExit = true
	conn.SetSsthresh(conn.Cwnd())
}

// OnEvent implements cc.CongestionControl: multiplicative decrease with
// fast convergence on loss events.
func (cu *Cubic) OnEvent(conn cc.Conn, ev cc.Event) {
	switch ev {
	case cc.EventEnterRecovery, cc.EventEnterLoss:
		cu.epochStart = -1
		cwnd := float64(conn.Cwnd())
		if fastConvergence && cwnd < cu.wMax {
			cu.wMax = cwnd * (2 - beta) / 2
		} else {
			cu.wMax = cwnd
		}
		ssthresh := int(cwnd * beta)
		if ssthresh < 2 {
			ssthresh = 2
		}
		conn.SetSsthresh(ssthresh)
		if ev == cc.EventEnterRecovery {
			// Rate-halving shortcut (PRR omitted).
			conn.SetCwnd(ssthresh)
		}
	case cc.EventECE:
		// Classic ECN (RFC 3168): respond like a loss, without any
		// retransmission — the router asked politely.
		cu.epochStart = -1
		cwnd := float64(conn.Cwnd())
		if fastConvergence && cwnd < cu.wMax {
			cu.wMax = cwnd * (2 - beta) / 2
		} else {
			cu.wMax = cwnd
		}
		ssthresh := int(cwnd * beta)
		if ssthresh < 2 {
			ssthresh = 2
		}
		conn.SetSsthresh(ssthresh)
		conn.SetCwnd(ssthresh)
	case cc.EventExitRecovery:
		if conn.Cwnd() < conn.Ssthresh() {
			conn.SetCwnd(conn.Ssthresh())
		}
	}
}
