package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"mobbr/internal/seg"
)

func mkEntry(seq int64, sentAt time.Duration) *pktInfo {
	return &pktInfo{seq: seq, len: 1000, sentAt: sentAt, inFlite: true}
}

func TestScoreboardAddOrdering(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	s.add(mkEntry(0, 0), ip)
	s.add(mkEntry(1000, 0), ip)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order add must panic")
		}
	}()
	s.add(mkEntry(500, 0), ip)
}

func TestPopAcked(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	for i := int64(0); i < 10; i++ {
		s.add(mkEntry(i*1000, 0), ip)
	}
	got := s.popAcked(3500, ip) // covers entries [0,1000) [1000,2000) [2000,3000)
	if len(got) != 3 {
		t.Fatalf("popped %d, want 3 (partial coverage keeps the 4th)", len(got))
	}
	if s.liveLen() != 7 {
		t.Fatalf("live = %d, want 7", s.liveLen())
	}
	if s.at(0).seq != 3000 {
		t.Fatalf("head seq = %d, want 3000", s.at(0).seq)
	}
}

// TestPopAckedCompaction pins the memory bound on long runs: a window of live
// entries sliding over many sends reuses the ring instead of leaving a dead
// prefix behind the head.
func TestPopAckedCompaction(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	const window = 100
	n := int64(3000)
	for i := int64(0); i < n; i++ {
		s.add(mkEntry(i*1000, 0), ip)
		if i >= window {
			if got := s.popAcked((i-window+1)*1000, ip); len(got) != 1 {
				t.Fatalf("send %d: popped %d, want 1", i, len(got))
			}
		}
	}
	if s.liveLen() != window {
		t.Fatalf("live = %d, want %d", s.liveLen(), window)
	}
	if len(s.ring) != 128 {
		t.Errorf("ring holds %d slots for a %d-entry window, want 128", len(s.ring), window)
	}
	for i := 0; i < window; i++ {
		if want := (n - window + int64(i)) * 1000; s.at(i).seq != want {
			t.Fatalf("entry %d seq = %d, want %d", i, s.at(i).seq, want)
		}
	}
}

func TestMarkSacked(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	for i := int64(0); i < 5; i++ {
		s.add(mkEntry(i*1000, 0), ip)
	}
	newly := s.markSacked(2000, 4000, ip)
	if len(newly) != 2 {
		t.Fatalf("sacked %d, want 2", len(newly))
	}
	// Re-marking the same range yields nothing new.
	if again := s.markSacked(2000, 4000, ip); len(again) != 0 {
		t.Fatalf("re-sack produced %d new entries", len(again))
	}
	// Partial overlap does not mark a partially covered packet.
	if partial := s.markSacked(4200, 4800, ip); len(partial) != 0 {
		t.Fatalf("partial coverage sacked %d entries", len(partial))
	}
}

func TestDetectLossesRequiresDupThresh(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	for i := int64(0); i < 6; i++ {
		s.add(mkEntry(i*1000, time.Duration(i)*time.Millisecond), ip)
	}
	// SACK the top two only: below dupthresh 3 → nothing lost.
	s.markSacked(4000, 6000, ip)
	if lost := s.detectLosses(3, time.Millisecond, ip); len(lost) != 0 {
		t.Fatalf("lost %d below dupthresh", len(lost))
	}
	// Third SACK above: the unsacked entries below (sent ≥ reoWnd before
	// the newest sacked) become lost.
	s.markSacked(3000, 4000, ip)
	lost := s.detectLosses(3, time.Millisecond, ip)
	if len(lost) != 3 {
		t.Fatalf("lost %d, want 3 (seqs 0,1000,2000)", len(lost))
	}
	for i, p := range lost {
		if p.seq != int64(i)*1000 {
			t.Errorf("lost[%d].seq = %d, want ascending order", i, p.seq)
		}
	}
}

func TestDetectLossesRACKGate(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	// Old packet at t=0, three sacked packets also around t=0, but a
	// freshly retransmitted packet at t=100ms must not be re-condemned
	// by that stale evidence.
	old := mkEntry(0, 0)
	s.add(old, ip)
	fresh := mkEntry(1000, 100*time.Millisecond)
	s.add(fresh, ip)
	for i := int64(2); i < 5; i++ {
		e := mkEntry(i*1000, 10*time.Millisecond+time.Duration(i)*time.Microsecond)
		s.add(e, ip)
	}
	s.markSacked(2000, 5000, ip)
	lost := s.detectLosses(3, time.Millisecond, ip)
	if len(lost) != 1 || lost[0] != old {
		t.Fatalf("RACK gate failed: lost %d entries", len(lost))
	}
	if fresh.lost {
		t.Error("fresh retransmission condemned by stale SACK evidence")
	}
}

func TestMarkAllLost(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	for i := int64(0); i < 5; i++ {
		s.add(mkEntry(i*1000, 0), ip)
	}
	s.markSacked(1000, 2000, ip)
	lost := s.markAllLost(ip)
	if len(lost) != 4 {
		t.Fatalf("marked %d, want 4 (sacked survives)", len(lost))
	}
	// Idempotent.
	if again := s.markAllLost(ip); len(again) != 0 {
		t.Fatalf("second markAllLost produced %d", len(again))
	}
}

func TestLostPendingOrderAndLimit(t *testing.T) {
	var s scoreboard
	ip := new(infoPool)
	for i := int64(0); i < 6; i++ {
		e := mkEntry(i*1000, 0)
		e.lost = true
		e.inFlite = false
		s.add(e, ip)
	}
	got := s.lostPendingInto(nil, 3)
	if len(got) != 3 {
		t.Fatalf("pending = %d, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].seq <= got[i-1].seq {
			t.Fatal("lostPending not in sequence order")
		}
	}
	if s.firstLost() != got[0] {
		t.Error("firstLost != first of lostPending")
	}
}

// Property: popAcked never returns an entry whose end exceeds the ack, and
// the remaining head is always the first uncovered entry.
func TestPopAckedProperty(t *testing.T) {
	f := func(nPkts uint8, ackK uint8) bool {
		n := int64(nPkts%50) + 1
		var s scoreboard
		ip := new(infoPool)
		for i := int64(0); i < n; i++ {
			s.add(mkEntry(i*1000, 0), ip)
		}
		ack := int64(ackK) * 250 // arbitrary, possibly mid-packet
		popped := s.popAcked(ack, ip)
		for _, p := range popped {
			if p.end() > ack {
				return false
			}
		}
		if s.liveLen() > 0 && s.at(0).end() <= ack {
			return false
		}
		return int64(len(popped))+int64(s.liveLen()) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after random sack/ack/loss operations, no entry is ever both
// acked and lost, and detectLosses returns each entry at most once.
func TestScoreboardStateMachineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var s scoreboard
		ip := new(infoPool)
		n := int64(rng.Intn(40) + 5)
		for i := int64(0); i < n; i++ {
			s.add(mkEntry(i*1000, time.Duration(i)*time.Millisecond), ip)
		}
		seenLost := map[int64]bool{}
		for op := 0; op < 30; op++ {
			switch rng.Intn(3) {
			case 0:
				a, b := rng.Int63n(n*1000), rng.Int63n(n*1000)
				if a > b {
					a, b = b, a
				}
				s.markSacked(a, b, ip)
			case 1:
				s.popAcked(rng.Int63n(n*1000), ip)
			case 2:
				for _, p := range s.detectLosses(3, time.Millisecond, ip) {
					if seenLost[p.seq] {
						t.Fatalf("entry %d reported lost twice", p.seq)
					}
					seenLost[p.seq] = true
				}
			}
			for i := 0; i < s.liveLen(); i++ {
				p := s.at(i)
				if p.acked && p.lost {
					t.Fatal("entry both acked and lost")
				}
			}
		}
	}
}

// TestDataPathSizes pins two sizes the data path is laid out for. A
// scoreboard entry is 64 bytes: its six flags sit together, and one placed
// after the three snapshot times pads it to 72. A new ACK's SACK blocks go
// into a slice made once for all three, where appending to a nil one would
// grow it 1 → 2 → 4.
func TestDataPathSizes(t *testing.T) {
	if n := unsafe.Sizeof(pktInfo{}); n != 64 {
		t.Errorf("scoreboard entry is %d bytes, want 64", n)
	}
	var got *seg.Ack
	r := Receiver{conn: &Conn{}, arena: &Arena{rxPool: seg.NewPool(), returnAck: func(a *seg.Ack) { got = a }}}
	r.ooo = []seg.SackBlock{{Start: 10, End: 20}, {Start: 30, End: 40}, {Start: 50, End: 60}, {Start: 70, End: 80}}
	r.sendAck(0, false)
	if len(got.Sacks) != 3 || cap(got.Sacks) != 3 {
		t.Errorf("a new ACK reports %d SACK blocks in a slice of cap %d, want 3 in 3", len(got.Sacks), cap(got.Sacks))
	}
}
