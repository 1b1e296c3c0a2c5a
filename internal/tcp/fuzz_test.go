package tcp

import (
	"bytes"
	"testing"
	"time"
)

// FuzzScoreboard drives random interleavings of the scoreboard operations —
// send, cumulative ACK, SACK, RACK loss detection, RTO collapse, retransmit,
// F-RTO undo — through a shadow model of the sender's counters, and checks
// the audit invariants the sim-wide checker relies on after every step. The
// same operations run on refBoard, the append-and-compact scoreboard the ring
// replaced, and the two must agree on every result and every live entry. Each
// input byte encodes one operation; the high bits parameterise it.
func FuzzScoreboard(f *testing.F) {
	// Seed corpus: representative op sequences (send bursts, SACK holes,
	// RTO + retransmit, RTO + undo). The last seed is the regression shape
	// for the ordered-add guard: interleaved sends and cumulative ACKs
	// compacting the ring while new segments append behind it.
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 2, 3, 5, 1})
	f.Add([]byte{0, 0, 0, 4, 5, 5, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 6, 1, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 4, 5, 1})
	// The ring wrapping inside its inline buffer, then growing twice with
	// its head off zero.
	f.Add(bytes.Repeat([]byte{0, 1}, 20))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1}, 12))

	const mss = 1448

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		var (
			board     scoreboard
			infos     infoPool
			ref       refBoard
			nextSeq   int64
			cumAck    int64
			now       = time.Millisecond
			segsSent  int64
			delivered int64
			inflight  int64
			lostTotal int64
		)
		// both checks that the two boards returned the same entries and
		// applies the sender's reaction to each: to the real board's entry
		// with the shadow counters (counted), to the reference's without.
		both := func(what string, got, want []*pktInfo, react func(p *pktInfo, counted bool)) {
			if len(got) != len(want) {
				t.Fatalf("%s: ring returned %d entries, reference %d", what, len(got), len(want))
			}
			for i := range got {
				if got[i].seq != want[i].seq {
					t.Fatalf("%s: entry %d is seq %d, reference %d", what, i, got[i].seq, want[i].seq)
				}
				react(got[i], true)
				react(want[i], false)
			}
		}
		deliver := func(p *pktInfo, counted bool) {
			if p.acked {
				return
			}
			p.acked = true
			if p.inFlite {
				p.inFlite = false
				if counted {
					inflight--
				}
			}
			if counted {
				delivered++
			}
		}
		condemn := func(p *pktInfo, counted bool) {
			if p.inFlite {
				p.inFlite = false
				if counted {
					inflight--
				}
			}
			if counted {
				lostTotal++
			}
		}
		for _, b := range ops {
			arg := int(b >> 3)
			now += 100 * time.Microsecond
			switch b % 7 {
			case 0: // send one new segment
				board.add(&pktInfo{seq: nextSeq, len: mss, sentAt: now, inFlite: true}, &infos)
				ref.add(&pktInfo{seq: nextSeq, len: mss, sentAt: now, inFlite: true})
				nextSeq += mss
				segsSent++
				inflight++
			case 1: // cumulative ACK covering arg+1 live entries
				n := board.liveLen()
				if n == 0 {
					continue
				}
				k := arg % n
				ack := board.at(k).end()
				both("popAcked", board.popAcked(ack, &infos), ref.popAcked(ack), func(p *pktInfo, counted bool) {
					if p.sacked {
						p.acked = true
						return
					}
					deliver(p, counted)
				})
				cumAck = ack
			case 2: // SACK a block of live entries above the hole
				n := board.liveLen()
				if n < 2 {
					continue
				}
				i := 1 + arg%(n-1) // never SACK the first hole
				j := i + 1 + arg%3
				if j > n {
					j = n
				}
				lo, hi := board.at(i).seq, board.at(j-1).end()
				both("markSacked", board.markSacked(lo, hi, &infos), ref.markSacked(lo, hi), deliver)
			case 3: // RACK/dupack loss detection
				reoWnd := time.Duration(arg) * time.Millisecond
				both("detectLosses", board.detectLosses(3, reoWnd, &infos), ref.detectLosses(3, reoWnd), condemn)
			case 4: // RTO: condemn everything outstanding
				both("markAllLost", board.markAllLost(&infos), ref.markAllLost(), condemn)
			case 5: // retransmit the first lost segment
				p, q := board.firstLost(), ref.firstLost()
				if (p == nil) != (q == nil) || p != nil && p.seq != q.seq {
					t.Fatalf("firstLost: ring %+v, reference %+v", p, q)
				}
				if p != nil {
					for _, e := range []*pktInfo{p, q} {
						e.retx = true
						e.sentAt = now
						e.inFlite = true
					}
					inflight++
				}
			case 6: // F-RTO undo: never-retransmitted condemned entries fly again
				both("undoLost", board.undoLost(&infos), ref.undoLost(), func(_ *pktInfo, counted bool) {
					if counted {
						inflight++
						lostTotal--
					}
				})
			}

			// The ring and the reference hold the same entries in the same
			// states.
			if board.liveLen() != ref.liveLen() {
				t.Fatalf("live entries: ring %d, reference %d", board.liveLen(), ref.liveLen())
			}
			for i := 0; i < board.liveLen(); i++ {
				p, q := *board.at(i), *ref.at(i)
				p.free, q.free = nil, nil
				if p != q {
					t.Fatalf("live entry %d: ring %+v, reference %+v", i, p, q)
				}
			}

			aInfl, aLost, liveBytes := board.audit()
			if int64(aInfl) != inflight {
				t.Fatalf("inflight: counter %d, board %d", inflight, aInfl)
			}
			aSacked, aAcked := 0, 0
			for i := 0; i < board.liveLen(); i++ {
				switch p := board.at(i); {
				case p.acked:
					aAcked++
				case p.sacked:
					aSacked++
				}
			}
			if aInfl+aLost+aSacked+aAcked != board.liveLen() {
				t.Fatalf("audit classes %d+%d+%d+%d != live %d",
					aInfl, aLost, aSacked, aAcked, board.liveLen())
			}
			if liveBytes != nextSeq-cumAck {
				t.Fatalf("live bytes %d != sndNxt-sndUna %d", liveBytes, nextSeq-cumAck)
			}
			// SACKed entries are delivered on arrival but stay live until
			// the cumulative ACK pops them, so the conserved quantity is
			// sent == delivered + in-flight + lost-pending (the sim-wide
			// checker's conservation/packets rule).
			if segsSent != delivered+int64(aInfl+aLost) {
				t.Fatalf("conservation: sent %d != delivered %d + inflight %d + lost %d",
					segsSent, delivered, aInfl, aLost)
			}
			if lostTotal < 0 || inflight < 0 {
				t.Fatalf("negative counters: inflight %d lost %d", inflight, lostTotal)
			}
			// firstLost and lostPending must agree.
			if p := board.firstLost(); p != nil {
				lp := board.lostPendingInto(nil, 1)
				if len(lp) != 1 || lp[0] != p {
					t.Fatalf("firstLost/lostPending disagree")
				}
			} else if len(board.lostPendingInto(nil, 1)) != 0 {
				t.Fatalf("lostPending nonempty but firstLost nil")
			}
			// Per-entry sanity: live seq range ordered and contiguous.
			for i := 1; i < board.liveLen(); i++ {
				if board.at(i).seq != board.at(i-1).end() {
					t.Fatalf("gap between live entries %d and %d", i-1, i)
				}
			}
			if board.liveLen() > 0 && board.at(0).seq < cumAck {
				t.Fatalf("live entry below cumulative ACK")
			}
		}
	})
}

// refBoard is the scoreboard as it was before the ring: an append-only slice
// whose dead prefix is compacted once it passes 1024 entries. FuzzScoreboard
// runs it beside the real one on the same operations; every result and the
// whole live state must agree after every step.
type refBoard struct {
	entries []*pktInfo
	head    int
}

func (s *refBoard) add(p *pktInfo)    { s.entries = append(s.entries, p) }
func (s *refBoard) liveLen() int      { return len(s.entries) - s.head }
func (s *refBoard) at(i int) *pktInfo { return s.entries[s.head+i] }
func (s *refBoard) live() []*pktInfo  { return s.entries[s.head:] }
func unsettled(p *pktInfo) bool       { return !p.acked && !p.sacked && !p.lost }
func awaitingRetx(p *pktInfo) bool    { return p.lost && !p.inFlite && !p.acked && !p.sacked }
func (s *refBoard) popAcked(cumAck int64) (out []*pktInfo) {
	for s.head < len(s.entries) && s.entries[s.head].end() <= cumAck {
		out = append(out, s.entries[s.head])
		s.entries[s.head] = nil
		s.head++
	}
	if s.head > 1024 && s.head*2 > len(s.entries) {
		s.entries = s.entries[:copy(s.entries, s.entries[s.head:])]
		s.head = 0
	}
	return out
}

func (s *refBoard) markSacked(start, end int64) (out []*pktInfo) {
	for _, p := range s.live() {
		if p.seq >= end {
			break
		}
		if p.end() > start && !p.sacked && !p.acked && p.seq >= start && p.end() <= end {
			p.sacked = true
			out = append(out, p)
		}
	}
	return out
}

func (s *refBoard) detectLosses(dupThresh int, reoWnd time.Duration) (out []*pktInfo) {
	var newestSack time.Duration = -1
	for _, p := range s.live() {
		if p.sacked && p.sentAt > newestSack {
			newestSack = p.sentAt
		}
	}
	if newestSack < 0 {
		return nil
	}
	sackedAbove := 0
	for i := s.liveLen() - 1; i >= 0; i-- {
		p := s.at(i)
		switch {
		case p.sacked:
			sackedAbove++
		case !p.acked && !p.lost && sackedAbove >= dupThresh && p.sentAt+reoWnd < newestSack:
			p.lost = true
			out = append([]*pktInfo{p}, out...)
		}
	}
	return out
}

func (s *refBoard) markAllLost() (out []*pktInfo) {
	for _, p := range s.live() {
		if unsettled(p) {
			p.lost = true
			out = append(out, p)
		}
	}
	return out
}

func (s *refBoard) undoLost() (out []*pktInfo) {
	for _, p := range s.live() {
		if awaitingRetx(p) && !p.retx {
			p.lost = false
			p.inFlite = true
			out = append(out, p)
		}
	}
	return out
}

func (s *refBoard) firstLost() *pktInfo {
	for _, p := range s.live() {
		if awaitingRetx(p) {
			return p
		}
	}
	return nil
}
