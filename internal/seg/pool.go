package seg

import (
	"fmt"

	"mobbr/internal/slab"
)

// lifeState tracks where a pooled object is in its acquire/release cycle.
type lifeState uint8

const (
	// lifeUnpooled marks objects built outside any pool (unit tests,
	// ad-hoc probes); the pool ignores them on release.
	lifeUnpooled lifeState = iota
	// lifeLive is checked out of a pool and owned by exactly one holder.
	lifeLive
	// lifeFree is parked on the pool's freelist.
	lifeFree
)

// maxViolations bounds how many lifecycle violations one pool records; the
// first few identify the bug, the rest are noise.
const maxViolations = 16

// Pool is a per-run memory recycler for the data path's unit objects:
// MSS-sized Packets on the wire and Acks flowing back. Both are recycled
// through freelists with explicit acquire/release at the well-defined sink
// points (packet consumed by the receiver, dropped at a queue, expired in a
// hold buffer; ACK consumed by the sender's ACK path), so a steady-state run
// performs no per-segment heap allocation. An object the freelist cannot
// supply comes from the pool's slab: a run that needs a few dozen allocates
// exactly those, one that holds thousands in flight allocates them in 16 KiB
// chunks (see slab.Slab.Next), as the kernel's skb cache does.
//
// The pool audits its own lifecycle: it counts outstanding objects (the
// invariant checker cross-checks them against the network's in-transit
// census each audit tick) and records double-releases and foreign releases
// as structured violations instead of corrupting the freelist.
//
// A Pool is deliberately not safe for concurrent use: each simulation run
// owns a private pool (created in core.Run), as it owns its congestion-control
// factories, which is what keeps repro.ForEachW -j parallelism race-free. All
// methods are nil-receiver safe — a nil *Pool degrades to plain heap
// allocation with no accounting, which is what unit tests that build
// conns/pipes directly get.
type Pool struct {
	freePkt *Packet
	freeAck *Ack
	// Freelist tails make PoolSet.Rebalance an O(1) splice instead of a
	// walk; nil whenever the corresponding head is nil.
	freePktTail *Packet
	freeAckTail *Ack

	pkts slab.Slab[Packet]
	acks slab.Slab[Ack]

	stats      PoolStats
	violations []Violation
}

// PoolStats is the pool's acquire/release census.
type PoolStats struct {
	// PacketGets / AckGets count acquisitions; PacketNews / AckNews count
	// the subset that had to allocate because the freelist was empty. The
	// difference is the recycling the pool achieved.
	PacketGets, PacketNews uint64
	AckGets, AckNews       uint64
	// PacketPuts / AckPuts count successful releases.
	PacketPuts, AckPuts uint64
	// OutstandingPackets / OutstandingAcks are live objects: acquired and
	// not yet released. At run end, after the harness reclaims the
	// network's hold buffers, both must be zero.
	OutstandingPackets, OutstandingAcks int
	// MaxOutstandingPackets / MaxOutstandingAcks are the high-water marks
	// of the outstanding counts over the run — the run's peak live-object
	// footprint, which the chaos harness budgets against.
	MaxOutstandingPackets, MaxOutstandingAcks int
	// Violations is how many lifecycle violations were recorded (capped).
	Violations int
}

// PacketsRecycled returns how many packet acquisitions were served from the
// freelist instead of the heap.
func (s PoolStats) PacketsRecycled() uint64 { return s.PacketGets - s.PacketNews }

// AcksRecycled returns how many ACK acquisitions were served from the
// freelist instead of the heap.
func (s PoolStats) AcksRecycled() uint64 { return s.AckGets - s.AckNews }

// Violation is one recorded lifecycle error (double release, foreign
// release). It is a structured record, not a panic: the invariant checker
// surfaces it as a check.Violation.
type Violation struct {
	// Kind names the failure: "packet-double-release", "ack-double-release",
	// "packet-foreign-release", "ack-foreign-release".
	Kind string
	// Detail identifies the object (flow/seq for packets, flow/cumack for
	// ACKs).
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// GetPacket acquires a zeroed Packet. On a nil pool it heap-allocates.
func (l *Pool) GetPacket() *Packet {
	if l == nil {
		return &Packet{}
	}
	l.stats.PacketGets++
	l.stats.OutstandingPackets++
	if l.stats.OutstandingPackets > l.stats.MaxOutstandingPackets {
		l.stats.MaxOutstandingPackets = l.stats.OutstandingPackets
	}
	p := l.freePkt
	if p == nil {
		l.stats.PacketNews++
		p = l.pkts.Next()
	} else {
		l.freePkt = p.next
		if l.freePkt == nil {
			l.freePktTail = nil
		}
		*p = Packet{}
	}
	p.life = lifeLive
	return p
}

// PutPacket releases a Packet back to the freelist. Releasing the same
// packet twice, or a packet the pool never issued, records a violation and
// leaves the freelist untouched. A nil pool or nil packet is a no-op.
func (l *Pool) PutPacket(p *Packet) {
	if l == nil || p == nil {
		return
	}
	switch p.life {
	case lifeFree:
		l.violate("packet-double-release", fmt.Sprintf("flow %d seq %d", p.Flow, p.Seq))
		return
	case lifeUnpooled:
		l.violate("packet-foreign-release", fmt.Sprintf("flow %d seq %d", p.Flow, p.Seq))
		return
	}
	if p.listed {
		l.violate("packet-release-while-held", fmt.Sprintf("flow %d seq %d still on a hold list", p.Flow, p.Seq))
		return
	}
	p.life = lifeFree
	p.prev = nil
	p.next = l.freePkt
	if l.freePkt == nil {
		l.freePktTail = p
	}
	l.freePkt = p
	l.stats.PacketPuts++
	l.stats.OutstandingPackets--
}

// GetAck acquires a zeroed Ack, preserving the capacity of its SACK-block
// slice so steady-state ACK generation reuses the same backing array. On a
// nil pool it heap-allocates.
func (l *Pool) GetAck() *Ack {
	if l == nil {
		return &Ack{}
	}
	l.stats.AckGets++
	l.stats.OutstandingAcks++
	if l.stats.OutstandingAcks > l.stats.MaxOutstandingAcks {
		l.stats.MaxOutstandingAcks = l.stats.OutstandingAcks
	}
	a := l.freeAck
	if a == nil {
		l.stats.AckNews++
		a = l.acks.Next()
	} else {
		l.freeAck = a.next
		if l.freeAck == nil {
			l.freeAckTail = nil
		}
		sacks := a.Sacks[:0]
		*a = Ack{}
		a.Sacks = sacks
	}
	a.life = lifeLive
	return a
}

// PutAck releases an Ack back to the freelist, with the same double- and
// foreign-release auditing as PutPacket.
func (l *Pool) PutAck(a *Ack) {
	if l == nil || a == nil {
		return
	}
	switch a.life {
	case lifeFree:
		l.violate("ack-double-release", fmt.Sprintf("flow %d cumack %d", a.Flow, a.CumAck))
		return
	case lifeUnpooled:
		l.violate("ack-foreign-release", fmt.Sprintf("flow %d cumack %d", a.Flow, a.CumAck))
		return
	}
	if a.listed {
		l.violate("ack-release-while-held", fmt.Sprintf("flow %d cumack %d still on a hold list", a.Flow, a.CumAck))
		return
	}
	a.life = lifeFree
	a.prev = nil
	a.next = l.freeAck
	if l.freeAck == nil {
		l.freeAckTail = a
	}
	l.freeAck = a
	l.stats.AckPuts++
	l.stats.OutstandingAcks--
}

func (l *Pool) violate(kind, detail string) {
	l.stats.Violations++
	if len(l.violations) < maxViolations {
		l.violations = append(l.violations, Violation{Kind: kind, Detail: detail})
	}
}

// Stats returns the pool's census. Safe on a nil pool (zero stats).
func (l *Pool) Stats() PoolStats {
	if l == nil {
		return PoolStats{}
	}
	return l.stats
}

// Violations returns the recorded lifecycle violations (capped at 16).
func (l *Pool) Violations() []Violation {
	if l == nil {
		return nil
	}
	return l.violations
}

// LeakPacketForTest acquires a packet and deliberately drops it on the
// floor, so tests can prove the leak audit catches real leaks. Test-only.
func (l *Pool) LeakPacketForTest() { _ = l.GetPacket() }

// --- intrusive hold lists ---------------------------------------------------

// PacketList is an intrusive doubly-linked list of live packets, used by the
// network emulator to track packets it holds asynchronously (propagation
// flight, blackout hold buffers) so they can be reclaimed at run end. A
// packet may be on at most one list at a time; Push on an already-listed
// packet panics (it would corrupt both lists). The zero value is ready.
type PacketList struct {
	head *Packet
	n    int
}

// Len returns the number of listed packets.
func (pl *PacketList) Len() int { return pl.n }

// Push adds p to the list.
func (pl *PacketList) Push(p *Packet) {
	if p.listed {
		panic("seg: packet pushed onto a second hold list")
	}
	p.listed = true
	p.prev = nil
	p.next = pl.head
	if pl.head != nil {
		pl.head.prev = p
	}
	pl.head = p
	pl.n++
}

// Remove unlinks p. Removing a packet that is not listed is a no-op, so the
// common pop-then-deliver flow needs no membership bookkeeping.
func (pl *PacketList) Remove(p *Packet) {
	if !p.listed {
		return
	}
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		pl.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.next, p.prev = nil, nil
	p.listed = false
	pl.n--
}

// Drain removes every packet, calling fn on each — the run-end reclaim.
func (pl *PacketList) Drain(fn func(*Packet)) {
	for pl.head != nil {
		p := pl.head
		pl.Remove(p)
		fn(p)
	}
}

// AckList is the Ack counterpart of PacketList, used for ACKs in return
// flight and ACKs queued behind the sender's CPU model. It also remembers its
// oldest entry: the CPU model is first-come-first-served, so the ACK whose
// processing job completes next is always the one that has waited longest.
type AckList struct {
	head, tail *Ack
	n          int
}

// Len returns the number of listed ACKs.
func (al *AckList) Len() int { return al.n }

// Oldest returns the listed ACK that was pushed first, or nil.
func (al *AckList) Oldest() *Ack { return al.tail }

// Push adds a to the list.
func (al *AckList) Push(a *Ack) {
	if a.listed {
		panic("seg: ack pushed onto a second hold list")
	}
	a.listed = true
	a.prev = nil
	a.next = al.head
	if al.head != nil {
		al.head.prev = a
	} else {
		al.tail = a
	}
	al.head = a
	al.n++
}

// Remove unlinks a; not-listed is a no-op.
func (al *AckList) Remove(a *Ack) {
	if !a.listed {
		return
	}
	if a.prev != nil {
		a.prev.next = a.next
	} else {
		al.head = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	} else {
		al.tail = a.prev
	}
	a.next, a.prev = nil, nil
	a.listed = false
	al.n--
}

// Drain removes every ACK, calling fn on each.
func (al *AckList) Drain(fn func(*Ack)) {
	for al.head != nil {
		a := al.head
		al.Remove(a)
		fn(a)
	}
}
