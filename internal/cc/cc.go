// Package cc defines the congestion-control interface the TCP transport
// drives, mirroring the Linux kernel's struct tcp_congestion_ops: the
// transport owns the scoreboard, RTT estimation and delivery-rate sampling,
// and hands each module a per-ACK rate sample; the module steers the
// connection through cwnd, ssthresh and pacing rate.
package cc

import (
	"math/rand"
	"time"

	"mobbr/internal/units"
)

// State is the sender's loss-recovery state, like tcp_ca_state.
type State int

// Loss-recovery states.
const (
	// StateOpen is normal operation: no loss suspected.
	StateOpen State = iota
	// StateRecovery is SACK/dupack-triggered fast recovery.
	StateRecovery
	// StateLoss follows a retransmission timeout.
	StateLoss
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateRecovery:
		return "recovery"
	case StateLoss:
		return "loss"
	default:
		return "unknown"
	}
}

// Event notifies the module of a recovery-state transition, like the
// kernel's CA_EVENT / set_state callbacks.
type Event int

// Congestion events.
const (
	// EventEnterRecovery fires when loss is first detected via
	// dupacks/SACK and the connection enters fast recovery.
	EventEnterRecovery Event = iota
	// EventEnterLoss fires on a retransmission timeout.
	EventEnterLoss
	// EventExitRecovery fires when recovery completes.
	EventExitRecovery
	// EventECE fires at most once per RTT when the receiver echoes ECN
	// congestion-experienced marks (classic-ECN response point).
	EventECE
	// EventSpuriousRTO fires when F-RTO-style detection concludes the
	// last timeout was spurious (the original transmission was ACKed);
	// the transport has already restored cwnd/ssthresh to their
	// pre-timeout values. Modules may additionally undo model state.
	EventSpuriousRTO
)

// Conn is the view of the connection a congestion-control module sees — the
// subset of tcp_sock a kernel module reads and writes.
type Conn interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// MSS returns the maximum segment size.
	MSS() units.DataSize
	// Cwnd returns the congestion window in packets.
	Cwnd() int
	// SetCwnd sets the congestion window in packets (clamped to >= 2 by
	// the transport).
	SetCwnd(pkts int)
	// Ssthresh returns the slow-start threshold in packets.
	Ssthresh() int
	// SetSsthresh sets the slow-start threshold in packets.
	SetSsthresh(pkts int)
	// PacingRate returns the current pacing rate (0 when unset).
	PacingRate() units.Bandwidth
	// SetPacingRate sets the pacing rate used by the internal pacer.
	SetPacingRate(r units.Bandwidth)
	// PacketsInFlight returns packets sent but neither acked nor marked
	// lost.
	PacketsInFlight() int
	// Delivered returns the total packets delivered (cumulatively acked
	// or SACKed) so far — the kernel's tp->delivered.
	Delivered() int64
	// SRTT returns the smoothed RTT (0 before the first sample).
	SRTT() time.Duration
	// State returns the current loss-recovery state.
	State() State
	// IsCwndLimited reports whether the last send attempt was limited by
	// cwnd rather than by application data.
	IsCwndLimited() bool
	// Rand returns the run's deterministic random source.
	Rand() *rand.Rand
}

// RateSample describes the delivery-rate measurement attached to one ACK,
// per the kernel's struct rate_sample (tcp_rate.c).
type RateSample struct {
	// Delivered is the number of packets delivered over Interval. -1
	// means the sample is invalid.
	Delivered int64
	// PriorDelivered is tp->delivered at the send of the newest acked
	// packet.
	PriorDelivered int64
	// Interval is the send/ack window the delivery was measured over.
	// <= 0 means the sample is invalid.
	Interval time.Duration
	// RTT is the RTT sample from this ACK (<= 0 if none).
	RTT time.Duration
	// AckedSacked is how many packets this ACK newly delivered.
	AckedSacked int64
	// Losses is how many packets were newly marked lost while processing
	// this ACK.
	Losses int64
	// PriorInFlight is the packets in flight before this ACK.
	PriorInFlight int
	// IsAppLimited marks samples taken while the sender had no data to
	// send, which must not lower bandwidth estimates.
	IsAppLimited bool
	// CECount is how many ECN CE marks this ACK echoed.
	CECount int64
}

// Valid reports whether the sample can be used for bandwidth estimation.
func (rs *RateSample) Valid() bool { return rs.Delivered >= 0 && rs.Interval > 0 }

// DeliveryRate returns the measured delivery rate, or 0 for invalid samples.
func (rs *RateSample) DeliveryRate(mss units.DataSize) units.Bandwidth {
	if !rs.Valid() {
		return 0
	}
	return units.BandwidthFromBytes(units.DataSize(rs.Delivered)*mss, rs.Interval)
}

// CongestionControl is the algorithm interface, the analogue of
// tcp_congestion_ops.
type CongestionControl interface {
	// Name returns the algorithm's sysctl-style name ("cubic", "bbr", …).
	Name() string
	// Init starts a flow. It is called once per flow, on a module that is
	// either fresh from its Factory or was driven by an earlier flow of the
	// same connection slot, and must leave both in the same state: every
	// per-flow field re-initialised, only the configuration set at
	// construction (a filter window, a Master's overrides) kept, and any
	// mode listener dropped without being called. This is the kernel's
	// icsk_ca_priv, which stays inline in the socket and is zeroed before
	// ca_ops->init runs again.
	Init(c Conn)
	// OnAck is called for every processed ACK after scoreboard and rate
	// sample updates — it merges cong_control/cong_avoid/pkts_acked.
	// rs points at scratch the transport reuses for the next ACK: a
	// module must not retain it past the call (copy the fields it needs).
	OnAck(c Conn, rs *RateSample)
	// OnEvent is called on loss-recovery transitions.
	OnEvent(c Conn, ev Event)
	// AckCost returns the module's per-ACK model cost in reference CPU
	// cycles; BBR's model update is substantially heavier than Cubic's
	// AIMD step (§5.1.1 of the paper).
	AckCost() float64
	// WantsPacing reports whether the module requires packet pacing
	// (true for BBR/BBRv2, false for Cubic).
	WantsPacing() bool
}

// Factory builds the congestion-control instance for the first flow of a
// connection slot; later flows on that slot re-Init the same instance. A
// factory belongs to one run, as a seg.Pool does: the registered ones carve
// their modules from a slab they own, so two runs that execute concurrently
// must not share one.
type Factory func() CongestionControl

// ModeReporter is implemented by modules with an internal state machine
// (BBR, BBRv2) that can notify a listener on every mode change — the
// telemetry layer attaches here instead of polling. The labels are the
// modules' String() forms (BBRv2 includes the PROBE_BW sub-phase, e.g.
// "PROBE_BW/CRUISE").
type ModeReporter interface {
	// SetModeListener installs fn, called as fn(old, new) on each change.
	// nil disables reporting.
	SetModeListener(fn func(old, new string))
}
