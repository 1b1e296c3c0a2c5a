package seg

import (
	"math/bits"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"mobbr/internal/slab"
)

func TestPoolRecyclesPackets(t *testing.T) {
	p := NewPool()
	a := p.GetPacket()
	a.Flow, a.Seq, a.Len = 3, 1460, MSS
	p.PutPacket(a)
	b := p.GetPacket()
	if b != a {
		t.Fatal("second GetPacket did not reuse the released packet")
	}
	if b.Flow != 0 || b.Seq != 0 || b.Len != 0 || b.Retx || b.SentAt != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", *b)
	}
	st := p.Stats()
	if st.PacketGets != 2 || st.PacketNews != 1 || st.PacketsRecycled() != 1 {
		t.Fatalf("stats = %+v, want 2 gets / 1 new / 1 recycled", st)
	}
	if st.OutstandingPackets != 1 {
		t.Fatalf("outstanding = %d, want 1", st.OutstandingPackets)
	}
}

func TestPoolRecyclesAcksPreservingSackCapacity(t *testing.T) {
	p := NewPool()
	a := p.GetAck()
	a.Sacks = append(a.Sacks, SackBlock{Start: 1, End: 2}, SackBlock{Start: 5, End: 9})
	cap1 := cap(a.Sacks)
	p.PutAck(a)
	b := p.GetAck()
	if b != a {
		t.Fatal("second GetAck did not reuse the released ACK")
	}
	if len(b.Sacks) != 0 {
		t.Fatalf("recycled ACK kept %d SACK blocks", len(b.Sacks))
	}
	if cap(b.Sacks) != cap1 {
		t.Fatalf("SACK capacity %d not preserved (was %d)", cap(b.Sacks), cap1)
	}
	if b.CumAck != 0 || b.Flow != 0 || b.EchoSentAt != 0 {
		t.Fatalf("recycled ACK not zeroed: %+v", *b)
	}
}

func TestPoolDoubleReleaseIsViolation(t *testing.T) {
	p := NewPool()
	pkt := p.GetPacket()
	pkt.Flow, pkt.Seq = 1, 42
	p.PutPacket(pkt)
	p.PutPacket(pkt)
	vs := p.Violations()
	if len(vs) != 1 || vs[0].Kind != "packet-double-release" {
		t.Fatalf("violations = %v, want one packet-double-release", vs)
	}
	if st := p.Stats(); st.PacketPuts != 1 || st.OutstandingPackets != 0 {
		t.Fatalf("double release corrupted stats: %+v", st)
	}
	// Freelist must still hold exactly one entry.
	if q := p.GetPacket(); q != pkt {
		t.Fatal("freelist corrupted by double release")
	}
	if p.GetPacket() == pkt {
		t.Fatal("double release duplicated the packet on the freelist")
	}

	a := p.GetAck()
	p.PutAck(a)
	p.PutAck(a)
	vs = p.Violations()
	if len(vs) != 2 || vs[1].Kind != "ack-double-release" {
		t.Fatalf("violations = %v, want ack-double-release appended", vs)
	}
}

func TestPoolForeignReleaseIsViolation(t *testing.T) {
	p := NewPool()
	p.PutPacket(&Packet{Flow: 7})
	p.PutAck(&Ack{Flow: 7})
	vs := p.Violations()
	if len(vs) != 2 || vs[0].Kind != "packet-foreign-release" || vs[1].Kind != "ack-foreign-release" {
		t.Fatalf("violations = %v, want foreign-release pair", vs)
	}
	if st := p.Stats(); st.PacketPuts != 0 || st.AckPuts != 0 || st.Violations != 2 {
		t.Fatalf("foreign release counted as a put: %+v", st)
	}
	// The foreign objects must not have entered the freelist.
	if p.GetPacket().Flow != 0 || p.GetAck().Flow != 0 {
		t.Fatal("foreign object entered the freelist")
	}
}

func TestPoolReleaseWhileHeldIsViolation(t *testing.T) {
	p := NewPool()
	var hold PacketList
	pkt := p.GetPacket()
	hold.Push(pkt)
	p.PutPacket(pkt)
	vs := p.Violations()
	if len(vs) != 1 || vs[0].Kind != "packet-release-while-held" {
		t.Fatalf("violations = %v, want packet-release-while-held", vs)
	}
	// After unlinking, release must succeed.
	hold.Remove(pkt)
	p.PutPacket(pkt)
	if st := p.Stats(); st.OutstandingPackets != 0 || st.PacketPuts != 1 {
		t.Fatalf("release after unlink failed: %+v", st)
	}
}

func TestPoolViolationCap(t *testing.T) {
	p := NewPool()
	for i := 0; i < maxViolations+10; i++ {
		p.PutPacket(&Packet{})
	}
	if got := len(p.Violations()); got != maxViolations {
		t.Fatalf("recorded %d violations, want cap %d", got, maxViolations)
	}
	if st := p.Stats(); st.Violations != maxViolations+10 {
		t.Fatalf("violation counter %d, want %d", st.Violations, maxViolations+10)
	}
}

func TestNilPoolDegradesToHeap(t *testing.T) {
	var p *Pool
	pkt := p.GetPacket()
	if pkt == nil {
		t.Fatal("nil pool returned nil packet")
	}
	p.PutPacket(pkt) // no-op, must not panic
	a := p.GetAck()
	if a == nil {
		t.Fatal("nil pool returned nil ACK")
	}
	p.PutAck(a)
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool has stats: %+v", st)
	}
	if p.Violations() != nil {
		t.Fatal("nil pool has violations")
	}
}

func TestPacketListPushRemoveDrain(t *testing.T) {
	var l PacketList
	pkts := []*Packet{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	for _, p := range pkts {
		l.Push(p)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	l.Remove(pkts[1]) // middle
	l.Remove(pkts[1]) // second remove is a no-op
	if l.Len() != 2 {
		t.Fatalf("len after remove = %d, want 2", l.Len())
	}
	var drained []int64
	l.Drain(func(p *Packet) { drained = append(drained, p.Seq) })
	if l.Len() != 0 || len(drained) != 2 {
		t.Fatalf("drain left len=%d drained=%v", l.Len(), drained)
	}
	for _, p := range pkts {
		if p.listed || p.next != nil || p.prev != nil {
			t.Fatalf("packet %d still linked after drain/remove", p.Seq)
		}
	}
}

func TestPacketListDoublePushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Push did not panic")
		}
	}()
	var a, b PacketList
	p := &Packet{}
	a.Push(p)
	b.Push(p)
}

func TestAckListPushRemoveDrain(t *testing.T) {
	var l AckList
	acks := []*Ack{{CumAck: 1}, {CumAck: 2}}
	for _, a := range acks {
		l.Push(a)
	}
	if l.Oldest() != acks[0] {
		t.Fatal("Oldest is not the first ACK pushed")
	}
	l.Remove(acks[0])
	if l.Len() != 1 || l.Oldest() != acks[1] {
		t.Fatalf("len = %d, oldest = %+v, want 1 and the second ACK", l.Len(), l.Oldest())
	}
	n := 0
	l.Drain(func(a *Ack) { n++ })
	if n != 1 || l.Len() != 0 || l.Oldest() != nil {
		t.Fatalf("drained %d, len %d, oldest %+v", n, l.Len(), l.Oldest())
	}
}

// TestPoolSteadyStateDoesNotGrow exercises a realistic churn pattern: a
// window of packets in flight, released in FIFO order while new ones are
// acquired. After warm-up the pool must serve everything from the freelist.
func TestPoolSteadyStateDoesNotGrow(t *testing.T) {
	p := NewPool()
	const window = 64
	var inFlight []*Packet
	for i := 0; i < 10_000; i++ {
		pkt := p.GetPacket()
		pkt.Seq = int64(i) * int64(MSS)
		pkt.SentAt = time.Duration(i)
		inFlight = append(inFlight, pkt)
		if len(inFlight) > window {
			p.PutPacket(inFlight[0])
			inFlight = inFlight[1:]
		}
	}
	st := p.Stats()
	if st.PacketNews > window+1 {
		t.Fatalf("steady state allocated %d fresh packets for a %d-packet window", st.PacketNews, window)
	}
	if st.OutstandingPackets != window {
		t.Fatalf("outstanding = %d, want %d", st.OutstandingPackets, window)
	}
	if len(p.Violations()) != 0 {
		t.Fatalf("unexpected violations: %v", p.Violations())
	}
}

func TestPoolHighWater(t *testing.T) {
	p := NewPool()
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		pkts = append(pkts, p.GetPacket())
	}
	for _, pk := range pkts {
		p.PutPacket(pk)
	}
	// Re-acquire fewer than the peak: high water must not move.
	a := p.GetPacket()
	b := p.GetAck()
	st := p.Stats()
	if st.MaxOutstandingPackets != 5 {
		t.Errorf("MaxOutstandingPackets = %d, want 5", st.MaxOutstandingPackets)
	}
	if st.OutstandingPackets != 1 {
		t.Errorf("OutstandingPackets = %d, want 1", st.OutstandingPackets)
	}
	if st.MaxOutstandingAcks != 1 {
		t.Errorf("MaxOutstandingAcks = %d, want 1", st.MaxOutstandingAcks)
	}
	p.PutPacket(a)
	p.PutAck(b)
	if st := p.Stats(); st.OutstandingPackets != 0 || st.OutstandingAcks != 0 {
		t.Errorf("outstanding after release = %d/%d", st.OutstandingPackets, st.OutstandingAcks)
	}
}

// TestPoolFirstUseAllocs pins how a pool allocates the objects its freelists
// cannot supply. A pool that builds what a small run needs (a 20-connection
// bulk run builds about twenty packets and twenty ACKs) allocates exactly
// those; one that builds thousands allocates slab.Singles singly, then a few
// doubling chunks and 16 KiB ones.
func TestPoolFirstUseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes malloc counts")
	}
	// The counts are exact; a collection would add the runtime's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, kind := range []struct {
		name string
		size uintptr
		get  func(*Pool)
	}{
		{"packets", unsafe.Sizeof(Packet{}), func(l *Pool) { l.GetPacket() }},
		{"acks", unsafe.Sizeof(Ack{}), func(l *Pool) { l.GetAck() }},
	} {
		build := func(n int) int {
			return int(testing.AllocsPerRun(1, func() {
				l := NewPool()
				for i := 0; i < n; i++ {
					kind.get(l)
				}
			})) - 1 // the pool itself
		}
		if got := build(20); got != 20 {
			t.Errorf("%s: a pool that builds 20 allocates %d objects, want 20", kind.name, got)
		}
		const n = 10_000
		chunk := (16<<10 - 8) / int(kind.size)
		bound := slab.Singles + bits.Len(uint(chunk/slab.Singles)) + n/chunk + 1
		if got := build(n); got > bound {
			t.Errorf("%s: a pool that builds %d allocates %d objects, want at most %d", kind.name, n, got, bound)
		}
	}
}
