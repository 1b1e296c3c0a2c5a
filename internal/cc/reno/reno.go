// Package reno implements NewReno congestion control, the kernel's fallback
// baseline (tcp_cong.c's tcp_reno_cong_avoid): slow start to ssthresh, then
// one packet per RTT of additive increase, with a 0.5 multiplicative
// decrease on loss. It exists here as the reference AIMD endpoint for
// fairness studies (§7.1.3 of the paper) and as the cheapest-possible
// congestion model for CPU ablations.
package reno

import (
	"mobbr/internal/cc"
	"mobbr/internal/slab"
)

// ackCost is Reno's per-ACK model work in reference cycles — a compare and
// an add.
const ackCost = 200

// Reno is one connection's NewReno state.
type Reno struct {
	// acked accumulates ACKed packets toward the next CA increment.
	acked int
}

// New returns a fresh Reno instance.
func New() *Reno { return &Reno{} }

// Factory returns a cc.Factory producing fresh Reno instances from its own
// slab, so it belongs to one run (see cc.Factory).
func Factory() cc.Factory {
	var mods slab.Slab[Reno]
	return func() cc.CongestionControl { return mods.Next() }
}

// Name implements cc.CongestionControl.
func (r *Reno) Name() string { return "reno" }

// WantsPacing implements cc.CongestionControl.
func (r *Reno) WantsPacing() bool { return false }

// AckCost implements cc.CongestionControl.
func (r *Reno) AckCost() float64 { return ackCost }

// Init implements cc.CongestionControl.
func (r *Reno) Init(cc.Conn) { r.acked = 0 }

// OnAck implements cc.CongestionControl: tcp_reno_cong_avoid.
func (r *Reno) OnAck(conn cc.Conn, rs *cc.RateSample) {
	if conn.State() != cc.StateOpen || !conn.IsCwndLimited() {
		return
	}
	acked := int(rs.AckedSacked)
	if acked <= 0 {
		return
	}
	cwnd := conn.Cwnd()
	if cwnd < conn.Ssthresh() {
		// Slow start: one packet per ACKed packet.
		conn.SetCwnd(cwnd + acked)
		return
	}
	// Congestion avoidance: one packet per window.
	r.acked += acked
	if r.acked >= cwnd {
		r.acked -= cwnd
		conn.SetCwnd(cwnd + 1)
	}
}

// OnEvent implements cc.CongestionControl: halve on loss.
func (r *Reno) OnEvent(conn cc.Conn, ev cc.Event) {
	switch ev {
	case cc.EventEnterRecovery, cc.EventEnterLoss:
		ss := conn.Cwnd() / 2
		if ss < 2 {
			ss = 2
		}
		conn.SetSsthresh(ss)
		if ev == cc.EventEnterRecovery {
			conn.SetCwnd(ss)
		}
	case cc.EventECE:
		ss := conn.Cwnd() / 2
		if ss < 2 {
			ss = 2
		}
		conn.SetSsthresh(ss)
		conn.SetCwnd(ss)
	case cc.EventExitRecovery:
		if conn.Cwnd() < conn.Ssthresh() {
			conn.SetCwnd(conn.Ssthresh())
		}
	}
}
