package tcp

import (
	"time"

	"mobbr/internal/slab"
	"mobbr/internal/units"
)

// pktInfo is the sender's per-segment scoreboard entry, the analogue of
// struct tcp_skb_cb for one MSS-sized segment.
type pktInfo struct {
	seq int64
	len units.DataSize

	sentAt  time.Duration
	retx    bool // has been retransmitted at least once
	inFlite bool // currently counted in flight
	sacked  bool
	lost    bool // marked lost, awaiting retransmission
	acked   bool // cumulatively acked or delivered

	// Rate-sample snapshots taken at (re)transmission, per tcp_rate.c. The
	// bool sits with the five above, which keeps the entry at 64 bytes.
	snapAppLimited    bool
	snapDelivered     int64
	snapDeliveredTime time.Duration
	snapFirstTx       time.Duration

	// free links the entry on its infoPool's freelist once the cumulative
	// ACK retires it (tcp_clean_rtx_queue frees the skb there) — or, until a
	// parked transmit job has run, on its connection's retired chain.
	free *pktInfo
}

func (p *pktInfo) end() int64 { return p.seq + int64(p.len) }

// infoPool hands out scoreboard entries: recycled ones first, otherwise a new
// one from its slab. Every connection of an arena shares the arena's one
// infoPool — a pool's recycled flows, iperf's parallel connections, the
// single connection NewConn builds — so an entry one connection retires
// serves the next segment any of them sends. A pointer to an entry must
// therefore not outlive the entry's put: the one holder that spans events,
// the parked transmit batch, makes Conn.retire keep the entry back until it
// has run.
//
// The infoPool also backs the first heap buffers of the scoreboards it
// serves (see scoreboard.grow and scoreboard.keep), which stay with their
// connection as the inline ones do.
type infoPool struct {
	free    *pktInfo
	entries slab.Slab[pktInfo]
	bufs    slab.Slab[[2 * inlineEntries]*pktInfo]
}

// get returns a zeroed entry.
func (ip *infoPool) get() *pktInfo {
	if p := ip.free; p != nil {
		ip.free = p.free
		*p = pktInfo{}
		return p
	}
	return ip.entries.NextIn(16, 128)
}

// buf returns a scoreboard buffer no one has used, twice the inline size.
func (ip *infoPool) buf() []*pktInfo { return ip.bufs.Next()[:] }

// put recycles an entry the scoreboard has dropped.
func (ip *infoPool) put(p *pktInfo) {
	p.free = ip.free
	ip.free = p
}

// inlineEntries sizes the scoreboard's built-in buffers. Most flows are mice
// whose few segments never outgrow them, so a connection's birth allocates no
// scoreboard memory; a longer flow moves to heap buffers that then stay with
// the connection across recycling. The first of those come from the infoPool
// the connection draws its entries from, so the calls that may outgrow a
// buffer take that pool as an argument.
const inlineEntries = 8

// scoreboard tracks sent-but-unacked segments in sequence order. Entries
// are appended as new data is sent and dropped from the front as the
// cumulative ACK advances; retransmissions update entries in place. The live
// entries sit in a power-of-two ring, so a long flow's buffer stays as large
// as its window ever was and no dead prefix accumulates behind the head.
//
// Result-slice lifetime: popAcked, markSacked, detectLosses, markAllLost and
// undoLost all return views of one shared scratch buffer, so each result is
// valid only until the next call to any of them — callers must consume it
// immediately (the ACK path does: each result is fully processed before the
// next scoreboard call). lostPendingInto appends into a caller-owned buffer
// instead, because the transmit path retains its result across a CPU-model
// completion.
type scoreboard struct {
	ring    []*pktInfo // the i-th live entry is ring[(head+i)&(len(ring)-1)]
	head, n int
	scratch []*pktInfo

	ringInl, scratchInl [inlineEntries]*pktInfo
}

// add appends a newly sent segment (must be in sequence order).
func (s *scoreboard) add(p *pktInfo, ip *infoPool) {
	if s.n > 0 {
		if last := s.at(s.n - 1); p.seq < last.end() {
			panic("tcp: scoreboard add out of order")
		}
	}
	if s.n == len(s.ring) {
		s.grow(ip)
	}
	s.ring[(s.head+s.n)&(len(s.ring)-1)] = p
	s.n++
}

// grow moves a full ring into one twice its size (the first call adopts the
// inline buffer, the second takes one from ip).
func (s *scoreboard) grow(ip *infoPool) {
	var bigger []*pktInfo
	switch len(s.ring) {
	case 0:
		s.ring = s.ringInl[:]
		return
	case inlineEntries:
		bigger = ip.buf()
	default:
		bigger = make([]*pktInfo, 2*len(s.ring))
	}
	for i := range s.ring {
		bigger[i] = s.at(i)
	}
	clear(s.ring)
	s.ring, s.head = bigger, 0
}

// liveLen returns the number of live entries.
func (s *scoreboard) liveLen() int { return s.n }

// at returns the i-th live entry.
func (s *scoreboard) at(i int) *pktInfo { return s.ring[(s.head+i)&(len(s.ring)-1)] }

// out returns the shared scratch buffer, emptied, for the next result.
func (s *scoreboard) out() []*pktInfo {
	if s.scratch == nil {
		s.scratch = s.scratchInl[:0]
	}
	return s.scratch[:0]
}

// keep appends p to a result in the scratch buffer. A result that outgrows
// the inline buffer moves to one from ip; one that outgrows that, to append's.
func keep(out []*pktInfo, p *pktInfo, ip *infoPool) []*pktInfo {
	if len(out) == inlineEntries && cap(out) == inlineEntries {
		out = append(ip.buf()[:0], out...)
	}
	return append(out, p)
}

// popFront removes and returns the lowest-sequence live entry.
func (s *scoreboard) popFront() *pktInfo {
	p := s.ring[s.head]
	s.ring[s.head] = nil
	s.head = (s.head + 1) & (len(s.ring) - 1)
	s.n--
	return p
}

// reset returns every live entry to ip and empties the board, keeping its
// buffers.
func (s *scoreboard) reset(ip *infoPool) {
	for s.n > 0 {
		ip.put(s.popFront())
	}
	s.head = 0
	clear(s.scratch[:cap(s.scratch)])
	s.scratch = s.scratch[:0]
}

// popAcked removes entries fully covered by cumAck from the front and
// returns them.
func (s *scoreboard) popAcked(cumAck int64, ip *infoPool) []*pktInfo {
	out := s.out()
	for s.n > 0 && s.ring[s.head].end() <= cumAck {
		out = keep(out, s.popFront(), ip)
	}
	s.scratch = out
	return out
}

// markSacked marks entries inside [start,end) as SACKed and returns the
// newly sacked ones.
func (s *scoreboard) markSacked(start, end int64, ip *infoPool) []*pktInfo {
	out := s.out()
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.seq >= end {
			break
		}
		if p.end() <= start || p.sacked || p.acked {
			continue
		}
		if p.seq >= start && p.end() <= end {
			p.sacked = true
			out = keep(out, p, ip)
		}
	}
	s.scratch = out
	return out
}

// detectLosses applies the dupack/SACK-count rule: a segment is lost if at
// least dupThresh segments above it have been SACKed (FACK-style counting).
// A RACK-style time gate keeps stale evidence from re-condemning fresh
// retransmissions: the segment must also have been sent at least reoWnd
// before the newest SACKed segment. It returns the newly lost entries.
func (s *scoreboard) detectLosses(dupThresh int, reoWnd time.Duration, ip *infoPool) []*pktInfo {
	n := s.liveLen()
	if n == 0 {
		return nil
	}
	// Newest (by send time) SACKed entry bounds how fresh the loss
	// evidence is.
	var newestSack time.Duration = -1
	for i := 0; i < n; i++ {
		if p := s.at(i); p.sacked && p.sentAt > newestSack {
			newestSack = p.sentAt
		}
	}
	if newestSack < 0 {
		return nil
	}
	// Count sacked entries from the top down; when the running count
	// reaches dupThresh every unsacked entry below sent reoWnd before
	// the newest evidence is deemed lost.
	out := s.out()
	sackedAbove := 0
	for i := n - 1; i >= 0; i-- {
		p := s.at(i)
		if p.sacked {
			sackedAbove++
			continue
		}
		if p.acked || p.lost {
			continue
		}
		if sackedAbove >= dupThresh && p.sentAt+reoWnd < newestSack {
			p.lost = true
			out = keep(out, p, ip)
		}
	}
	// Reverse so callers retransmit lowest sequence first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	s.scratch = out
	return out
}

// markAllLost marks every unsacked in-flight entry lost (tcp_enter_loss on
// RTO) and returns them in sequence order.
func (s *scoreboard) markAllLost(ip *infoPool) []*pktInfo {
	out := s.out()
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.acked || p.sacked || p.lost {
			continue
		}
		p.lost = true
		out = keep(out, p, ip)
	}
	s.scratch = out
	return out
}

// undoLost clears the lost mark from entries that were condemned but never
// retransmitted (F-RTO spurious-timeout undo: the originals are still in
// flight) and returns them in sequence order.
func (s *scoreboard) undoLost(ip *infoPool) []*pktInfo {
	out := s.out()
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.lost && !p.retx && !p.inFlite && !p.acked && !p.sacked {
			p.lost = false
			p.inFlite = true
			out = keep(out, p, ip)
		}
	}
	s.scratch = out
	return out
}

// audit walks the live entries and classifies each into exactly one state,
// for the invariant checker: in flight, lost awaiting retransmission,
// SACKed awaiting cumulative ACK, or acked-but-not-yet-popped; it returns
// the first two counts. It also sums the live byte span.
func (s *scoreboard) audit() (inflight, lostPending int, liveBytes int64) {
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		liveBytes += int64(p.len)
		switch {
		case p.acked, p.sacked:
		case p.inFlite:
			inflight++
		case p.lost:
			lostPending++
		default:
			// Neither acked, sacked, in flight nor lost: impossible by
			// construction; counted as lost so the checker flags it.
			lostPending++
		}
	}
	return
}

// firstLost returns the lowest-sequence entry marked lost and not in
// flight, or nil.
func (s *scoreboard) firstLost() *pktInfo {
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.lost && !p.inFlite && !p.acked && !p.sacked {
			return p
		}
	}
	return nil
}

// lostPendingInto appends up to max lost entries awaiting retransmission to
// dst, in sequence order. The transmit path passes its own reusable buffer
// because the result lives until the CPU model finishes the transmit job.
func (s *scoreboard) lostPendingInto(dst []*pktInfo, max int) []*pktInfo {
	for i := 0; i < s.liveLen() && len(dst) < max; i++ {
		p := s.at(i)
		if p.lost && !p.inFlite && !p.acked && !p.sacked {
			dst = append(dst, p)
		}
	}
	return dst
}
