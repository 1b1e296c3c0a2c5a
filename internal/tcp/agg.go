package tcp

import (
	"time"

	"mobbr/internal/units"
)

// AggStats is a run-wide aggregate counter sink maintained incrementally at
// delivery and ACK time, so harness sampling (interval reports, warmup
// snapshots, pool cross-checks) costs O(1) regardless of how many
// connections are live. One AggStats is shared by every connection of a run
// through their arena (NewArena's agg; nil, the default, costs the hot paths
// only nil-checks).
//
// The counters are defined to agree exactly — same integers, not just
// statistically — with the slow O(conns) walks they replace:
//
//	GoodBytes   == Σ Receiver.GoodBytes()   (hooked at the single point
//	               rcvNxt advances in OnPacket)
//	Retransmits == Σ ConnStats.Retransmits  (hooked at emit's retx loop)
//	HeldAcks    == Σ Audit.HeldAcks         (hooked at pendingAcks
//	               push/remove/drain)
//
// RTT is an incremental mean over every Karn-valid RTT sample (the per-ACK
// series, not the periodic `ss`-style poll iperf reports for the paper's
// figures).
type AggStats struct {
	goodBytes   units.DataSize
	retransmits int64
	heldAcks    int
	rttSum      time.Duration
	rttN        int64
}

// GoodBytes returns the in-order bytes delivered across all receivers.
func (a *AggStats) GoodBytes() units.DataSize { return a.goodBytes }

// Retransmits returns the total retransmitted segments across all senders.
func (a *AggStats) Retransmits() int64 { return a.retransmits }

// HeldAcks returns how many pooled ACKs are currently parked behind the CPU
// model (delivered by the network, not yet processed) across all
// connections — including stopped connections still draining toward
// quiescence.
func (a *AggStats) HeldAcks() int { return a.heldAcks }

// AvgRTT returns the mean of every RTT sample fed to the smoother so far
// (0 before the first sample).
func (a *AggStats) AvgRTT() time.Duration {
	if a.rttN == 0 {
		return 0
	}
	return a.rttSum / time.Duration(a.rttN)
}

// RTTSamples returns how many RTT samples AvgRTT averages over.
func (a *AggStats) RTTSamples() int64 { return a.rttN }

// RTTSum returns the running sum behind AvgRTT; with RTTSamples it lets
// interval reports compute exact windowed RTT means from counter deltas.
func (a *AggStats) RTTSum() time.Duration { return a.rttSum }
