package seg

// PoolSet is the sharded form of Pool: one arena per engine shard, each
// touched only by its own shard between barriers, with the single-pool
// conservation invariant recovered by summing the arena censuses. The data
// path creates asymmetric flow between arenas — the sender arena Gets
// packets the receiver arena Puts, and vice versa for ACKs — so a single
// arena's Outstanding count may legitimately go negative; only the sum is
// conserved, and that sum is what the invariant checker audits against the
// network's in-transit census.
//
// Without intervention the asymmetry starves the freelists (the sender
// would allocate a fresh packet per segment forever while the receiver
// arena's freelist grows without bound), so the sharded engine calls
// Rebalance at every window barrier: freed packets splice back to the
// packet-getter arena and freed ACKs to the ACK-getter arena, both O(1)
// via the freelist tail pointers.
type PoolSet struct {
	arenas []*Pool
	// pktHome / ackHome are the arenas that Get (and so should own the
	// freelists of) packets and ACKs respectively: in the sender/receiver
	// split the sender arena acquires packets, the receiver arena ACKs.
	pktHome, ackHome int
}

// NewPoolSet returns n empty arenas; freed packets rebalance to arena
// pktHome and freed ACKs to arena ackHome.
func NewPoolSet(n, pktHome, ackHome int) *PoolSet {
	if n < 1 || pktHome < 0 || pktHome >= n || ackHome < 0 || ackHome >= n {
		panic("seg: invalid pool-set shape")
	}
	s := &PoolSet{pktHome: pktHome, ackHome: ackHome}
	for i := 0; i < n; i++ {
		s.arenas = append(s.arenas, NewPool())
	}
	return s
}

// Arena returns the i-th arena, a plain *Pool wired into the shard that
// owns it exactly as a serial run's single pool would be.
func (s *PoolSet) Arena(i int) *Pool { return s.arenas[i] }

// Stats sums the arena censuses. The Outstanding sums satisfy the same
// conservation invariant as a single pool's; the MaxOutstanding sums are an
// upper bound on the true global peak (per-arena peaks need not coincide).
func (s *PoolSet) Stats() PoolStats {
	var t PoolStats
	for _, a := range s.arenas {
		st := a.Stats()
		t.PacketGets += st.PacketGets
		t.PacketNews += st.PacketNews
		t.AckGets += st.AckGets
		t.AckNews += st.AckNews
		t.PacketPuts += st.PacketPuts
		t.AckPuts += st.AckPuts
		t.OutstandingPackets += st.OutstandingPackets
		t.OutstandingAcks += st.OutstandingAcks
		t.MaxOutstandingPackets += st.MaxOutstandingPackets
		t.MaxOutstandingAcks += st.MaxOutstandingAcks
		t.Violations += st.Violations
	}
	return t
}

// Violations concatenates every arena's recorded lifecycle violations.
func (s *PoolSet) Violations() []Violation {
	var out []Violation
	for _, a := range s.arenas {
		out = append(out, a.Violations()...)
	}
	return out
}

// Rebalance splices every arena's free packets to the packet-home arena and
// free ACKs to the ACK-home arena. O(1) per arena. Call it single-threaded
// (at a window barrier or after the run); it moves only free objects, so no
// census changes and no lifecycle states change.
func (s *PoolSet) Rebalance() {
	pktHome, ackHome := s.arenas[s.pktHome], s.arenas[s.ackHome]
	for i, a := range s.arenas {
		if i != s.pktHome && a.freePkt != nil {
			if pktHome.freePkt == nil {
				pktHome.freePkt = a.freePkt
			} else {
				pktHome.freePktTail.next = a.freePkt
			}
			pktHome.freePktTail = a.freePktTail
			a.freePkt, a.freePktTail = nil, nil
		}
		if i != s.ackHome && a.freeAck != nil {
			if ackHome.freeAck == nil {
				ackHome.freeAck = a.freeAck
			} else {
				ackHome.freeAckTail.next = a.freeAck
			}
			ackHome.freeAckTail = a.freeAckTail
			a.freeAck, a.freeAckTail = nil, nil
		}
	}
}
