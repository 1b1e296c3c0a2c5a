// Package seg defines the units of data moving through the simulated
// network: MSS-sized packets on the wire, ACKs flowing back, and the
// sender-side skb aggregates that the pacer and the CPU model reason about.
package seg

import (
	"time"

	"mobbr/internal/units"
)

// MSS is the maximum segment size used throughout the testbed (Ethernet
// 1500-byte MTU minus 40 bytes of IP+TCP headers, matching the paper's
// iPerf3-over-Ethernet setup).
const MSS units.DataSize = 1460

// Packet is one TCP data segment on the wire.
type Packet struct {
	// Flow identifies the connection the packet belongs to.
	Flow int
	// Seq is the first byte's sequence number.
	Seq int64
	// Len is the payload length in bytes (≤ MSS).
	Len units.DataSize
	// SentAt is the virtual time the packet left the sender's stack.
	SentAt time.Duration
	// Retx marks a retransmission.
	Retx bool
	// CE is the ECN Congestion-Experienced mark, set by an AQM queue
	// instead of dropping when the sender negotiated ECN.
	CE bool

	// Pool plumbing: freelist / hold-list links and the lifecycle state.
	// A packet is on at most one intrusive list at a time — the pool's
	// freelist while free, or one holder's PacketList while in flight.
	next, prev *Packet
	life       lifeState
	listed     bool
}

// End returns the sequence number one past the packet's last byte.
func (p *Packet) End() int64 { return p.Seq + int64(p.Len) }

// SackBlock is one contiguous range of received-but-not-cumulatively-acked
// bytes reported by the receiver.
type SackBlock struct {
	Start, End int64
}

// Ack is an acknowledgment flowing from receiver to sender.
type Ack struct {
	// Flow identifies the connection.
	Flow int
	// CumAck is the next byte the receiver expects (cumulative ACK).
	CumAck int64
	// Sacks reports up to three most recent out-of-order blocks.
	Sacks []SackBlock
	// EchoSentAt is the send timestamp of the packet that triggered this
	// ACK (a timestamp-option stand-in used for RTT sampling).
	EchoSentAt time.Duration
	// EchoRetx marks an ACK triggered by a retransmitted packet.
	EchoRetx bool
	// CECount is how many CE-marked segments this ACK covers (the
	// receiver's ECE echo, counted rather than latched, as AccECN does).
	CECount int64

	// Pool plumbing, as on Packet.
	next, prev *Ack
	life       lifeState
	listed     bool
}
