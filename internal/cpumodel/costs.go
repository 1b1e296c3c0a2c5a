// Package cpumodel simulates the phone's network-stack CPU: a serial
// resource that executes every TCP operation (segment transmission, ACK
// processing, congestion-control model updates, pacing-timer callbacks) with
// a per-operation cycle cost. Frequency governors (fixed or schedutil-like)
// set how fast cycles retire.
//
// The cost table is the calibration surface of the whole reproduction: the
// paper measures real phones, we measure a model, and these constants are
// chosen so the model's goodput matches the paper's *shape* (see DESIGN.md
// §5 and EXPERIMENTS.md). Costs are expressed in reference cycles — cycles
// on a core with IPC factor 1.0; a real core retires them at
// freq × IPCFactor reference cycles per second.
package cpumodel

// Op identifies a class of network-stack work charged to the CPU.
type Op int

// Operations charged to the netstack CPU.
const (
	// OpSegXmit is the per-MSS-segment transmit path: TCP header build,
	// IP, qdisc, driver DMA setup.
	OpSegXmit Op = iota
	// OpSKBXmit is the fixed per-skb overhead of a transmit call
	// (tcp_write_xmit entry, skb alloc/clone, socket lock).
	OpSKBXmit
	// OpPacingTimer is one internal-pacing event: hrtimer programming,
	// expiry interrupt, TSQ tasklet reschedule, and re-entry into
	// tcp_write_xmit. This is the overhead §6.1 of the paper identifies.
	OpPacingTimer
	// OpAckProcess is the tcp_ack fast path for one incoming ACK:
	// scoreboard update, rtt sample, window accounting.
	OpAckProcess
	// OpCCUpdate is the congestion-control module's per-ACK work; its
	// magnitude is supplied by the CC (BBR's model update is heavier
	// than Cubic's AIMD step).
	OpCCUpdate
	// OpRetransmit is the extra work to queue one retransmission
	// (scoreboard walk, skb requeue).
	OpRetransmit
	// OpRTO is a retransmission-timeout firing.
	OpRTO
	// OpDataCopy is the tcp_sendmsg copy-from-user work, charged per
	// byte on the application core (not the softirq core).
	OpDataCopy
	// OpFlowLookup is the per-ACK flow-table demux: a hash-slot hit on
	// the offloaded fast path, or a slow-path walk for flows below the
	// offload threshold (see FlowTable). Only charged when a flow table
	// is attached — classic iperf runs never pay it.
	OpFlowLookup
	numOps
)

var opNames = [numOps]string{
	"seg_xmit", "skb_xmit", "pacing_timer", "ack_process", "cc_update",
	"retransmit", "rto", "data_copy", "flow_lookup",
}

// String returns the operation's short name.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return "unknown"
	}
	return opNames[o]
}

// Costs is the per-operation cycle-cost table, in reference cycles.
type Costs struct {
	SegXmit     float64
	SKBXmit     float64
	PacingTimer float64
	AckProcess  float64
	// AckPerSeg is the per-acked-packet scoreboard walk
	// (tcp_clean_rtx_queue frees one skb per segment), charged on top
	// of AckProcess for every packet an ACK covers.
	AckPerSeg  float64
	Retransmit float64
	RTO        float64
	// CopyPerByte is the tcp_sendmsg copy+checksum cost per payload
	// byte, executed in process context on the application core.
	CopyPerByte float64
	// FlowLookupFast / FlowLookupSlow are the per-ACK flow-table demux
	// costs: a perfect-hash hit in the offloaded table versus the
	// software slow-path walk (FlowTable decides which applies).
	FlowLookupFast float64
	FlowLookupSlow float64
}

// DefaultCosts returns the calibrated cost table. The values were fitted so
// that the simulated Pixel 4 reproduces the paper's Figure 2 anchors:
// Low-End Cubic ≈ 364 Mbps (1 conn), Low-End BBR ≈ 325 Mbps (1 conn) and
// ≈ 138 Mbps (20 conns), High-End ≥ 915 Mbps for both. PacingTimer dominates:
// on an in-order LITTLE core the hrtimer + tasklet + socket-reprocessing
// path runs with cold caches and is tens of microseconds, which is the
// paper's central observation.
func DefaultCosts() Costs {
	return Costs{
		// With GSO the stack is traversed once per skb; the remaining
		// per-segment work is DMA descriptors and checksums.
		SegXmit:     5800,
		SKBXmit:     6000,
		PacingTimer: 16000,
		// tcp_ack's fast path: cheap enough to keep up with wire-spaced
		// ACK trains; the congestion module's model update (OpCCUpdate)
		// comes on top of this.
		AckProcess: 6000,
		AckPerSeg:  3500,
		Retransmit: 3000,
		RTO:        8000,
		// ~6.6 cycles per byte: copy_from_user plus checksum on an
		// in-order core with the payload missing cache.
		CopyPerByte: 7.0,
		// Flow-table demux: an offloaded hit is a few cache lines; the
		// software slow path hashes, walks a bucket chain and touches
		// cold per-flow state.
		FlowLookupFast: 400,
		FlowLookupSlow: 2600,
	}
}
