package tcp

import (
	"time"

	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// GRO parameters for the server's NIC: arriving in-order segments are
// coalesced until the stream pauses or the bundle reaches the GSO limit,
// and one ACK covers the whole bundle — standard desktop receive behaviour.
// Aggregated ACKs are what let the unpaced sender burst whole windows at
// once, which is how disabling pacing congests the network (§5.2.3).
const (
	groFlushGap = 90 * time.Microsecond
	groMaxBytes = 64 * units.KB
)

// Receiver is the server side of one connection (the iPerf3 server's
// desktop): it reassembles the byte stream, counts goodput, and generates
// one ACK per GRO bundle in order — immediately on reordering or
// duplicates — with SACK blocks. The server machine is fast and is not
// charged to the phone's CPU model.
type Receiver struct {
	eng  *sim.Engine
	path *netem.Path
	conn *Conn

	rcvNxt int64
	ooo    []seg.SackBlock // disjoint, sorted by Start

	pendingBytes units.DataSize
	ceSinceAck   int64
	flush        sim.Timer

	// The GRO flush needs the last packet's echo fields after the packet
	// itself has been consumed (released to the pool at the end of
	// OnPacket), so they are copied out rather than aliased.
	lastSentAt time.Duration
	lastRetx   bool
	haveLast   bool

	goodBytes units.DataSize // in-order bytes delivered (goodput)

	// Sharded overrides (SetShard): in a sharded run the receiver lives on
	// a different engine shard than its conn, so packet release and ACK
	// acquisition must use the receiver shard's pool arena, and ACK return
	// must cross back through the shard mailbox instead of scheduling on
	// the sender's engine. Both nil in serial runs.
	rxPool    *seg.Pool
	returnAck func(*seg.Ack)

	// onDelivery, when set, fires after OnPacket whenever rcvNxt advanced —
	// the receive-side readable notification the apps layer consumes.
	onDelivery func()
}

// SetDeliveryListener installs the in-order-delivery hook. It runs after
// the triggering packet has been released to the pool, so it may freely
// schedule follow-on work.
func (r *Receiver) SetDeliveryListener(fn func()) { r.onDelivery = fn }

// SetShard moves the receiver's pool traffic to the given arena and its ACK
// return to returnAck (the cross-shard mailbox). Call once at wiring time;
// NewReceiver must already have been given the receiver shard's engine.
func (r *Receiver) SetShard(pool *seg.Pool, returnAck func(*seg.Ack)) {
	r.rxPool = pool
	r.returnAck = returnAck
}

// recvPool returns the pool serving this receiver's acquire/release: the
// receiver shard's arena when sharded, otherwise the conn's pool.
func (r *Receiver) recvPool() *seg.Pool {
	if r.rxPool != nil {
		return r.rxPool
	}
	return r.conn.pool
}

// NewReceiver builds the receiving endpoint for conn and registers the
// connection as its flow's ACK sink on the path's return fast path.
func NewReceiver(eng *sim.Engine, path *netem.Path, conn *Conn) *Receiver {
	r := &Receiver{eng: eng, path: path, conn: conn}
	r.open()
	return r
}

// open starts receiving the connection's current flow on a receiver that
// holds its wiring and is otherwise zero: the one initialiser behind
// NewReceiver, a pool slot's first use and Reset.
func (r *Receiver) open() {
	r.path.RegisterAckSink(r.conn.id, r.conn)
}

// OnPacket processes one arriving data segment. This is the packet's sink
// point: its payload is absorbed into the reassembly state and the packet
// object is released back to the pool before returning.
func (r *Receiver) OnPacket(pkt *seg.Packet) {
	prevNxt := r.rcvNxt
	r.lastSentAt, r.lastRetx = pkt.SentAt, pkt.Retx
	r.haveLast = true
	if pkt.CE {
		r.ceSinceAck++
	}
	switch {
	case pkt.End() <= r.rcvNxt || r.covered(pkt):
		// Duplicate (spurious retransmission): ACK immediately so the
		// sender's scoreboard converges.
		r.sendAck(pkt.SentAt, pkt.Retx)
	case pkt.Seq <= r.rcvNxt:
		// In-order (possibly overlapping the edge): advance and pull in
		// any out-of-order data that is now contiguous.
		if pkt.End() > r.rcvNxt {
			r.goodBytes += units.DataSize(pkt.End() - r.rcvNxt)
			r.rcvNxt = pkt.End()
		}
		r.mergeContiguous()
		r.pendingBytes += pkt.Len
		if len(r.ooo) > 0 || r.pendingBytes >= groMaxBytes {
			r.sendAck(pkt.SentAt, pkt.Retx)
		} else {
			r.armFlush()
		}
	default:
		// Out of order: store and ACK immediately (dupack with SACK).
		r.insertOOO(seg.SackBlock{Start: pkt.Seq, End: pkt.End()})
		r.sendAck(pkt.SentAt, pkt.Retx)
	}
	r.recvPool().PutPacket(pkt)
	if r.rcvNxt > prevNxt {
		if r.conn.agg != nil {
			// The single point goodBytes advances: the aggregate counter
			// stays integer-identical to Σ Receiver.GoodBytes().
			r.conn.agg.goodBytes += units.DataSize(r.rcvNxt - prevNxt)
		}
		if r.onDelivery != nil {
			r.onDelivery()
		}
	}
}

// covered reports whether the packet's range is already held out-of-order.
func (r *Receiver) covered(pkt *seg.Packet) bool {
	for _, b := range r.ooo {
		if pkt.Seq >= b.Start && pkt.End() <= b.End {
			return true
		}
	}
	return false
}

// insertOOO adds nb to the out-of-order list, keeping it sorted by Start and
// disjoint. The list is edited in place: nb is opened into its sorted
// position, then everything it touches (overlapping or adjacent) is folded
// into one block and the tail copied down.
func (r *Receiver) insertOOO(nb seg.SackBlock) {
	ooo := r.ooo
	i := len(ooo)
	for i > 0 && ooo[i-1].Start > nb.Start {
		i--
	}
	ooo = append(ooo, seg.SackBlock{})
	copy(ooo[i+1:], ooo[i:])
	ooo[i] = nb
	// Only the predecessor can reach nb from the left; fold from there.
	if i > 0 && ooo[i-1].End >= nb.Start {
		i--
	}
	j := i + 1
	for ; j < len(ooo) && ooo[j].Start <= ooo[i].End; j++ {
		if ooo[j].End > ooo[i].End {
			ooo[i].End = ooo[j].End
		}
	}
	kept := copy(ooo[i+1:], ooo[j:])
	r.ooo = ooo[:i+1+kept]
}

// mergeContiguous absorbs out-of-order blocks that now start at or below
// rcvNxt. Survivors are copied down rather than re-sliced off the front, so
// the backing array keeps its capacity for the next loss episode.
func (r *Receiver) mergeContiguous() {
	n := 0
	for n < len(r.ooo) && r.ooo[n].Start <= r.rcvNxt {
		if r.ooo[n].End > r.rcvNxt {
			r.goodBytes += units.DataSize(r.ooo[n].End - r.rcvNxt)
			r.rcvNxt = r.ooo[n].End
		}
		n++
	}
	if n > 0 {
		r.ooo = r.ooo[:copy(r.ooo, r.ooo[n:])]
	}
}

// armFlush (re)schedules the GRO flush: the bundle is acknowledged once
// the arrival stream pauses.
func (r *Receiver) armFlush() {
	if !r.flush.Reschedule(groFlushGap) {
		r.flush = r.eng.ScheduleP(groFlushGap, rxFlushExpired, r)
	}
}

// rxFlushExpired is the GRO flush timer's callback, shared by every receiver
// (see the conn* callbacks in conn.go).
func rxFlushExpired(v any) { v.(*Receiver).flushExpired() }

func (r *Receiver) flushExpired() {
	if r.pendingBytes > 0 && r.haveLast {
		r.sendAck(r.lastSentAt, r.lastRetx)
	}
}

// sendAck builds and returns an ACK echoing the triggering packet's fields.
// SACK blocks are value-copied out of r.ooo into the ACK's (pool-recycled)
// Sacks slice, so the ACK never aliases the receiver's out-of-order state —
// and conversely the ACK path may recycle the ACK without the receiver
// noticing (the fix for SACK slices outliving ACK consumption).
func (r *Receiver) sendAck(echoSentAt time.Duration, echoRetx bool) {
	r.pendingBytes = 0
	r.flush.Stop()
	a := r.recvPool().GetAck()
	a.Flow = r.conn.id
	a.CumAck = r.rcvNxt
	a.EchoSentAt = echoSentAt
	a.EchoRetx = echoRetx
	a.CECount = r.ceSinceAck
	r.ceSinceAck = 0
	// Report up to three SACK blocks, newest-covering first, into a slice
	// made at that size once per ACK object.
	if len(r.ooo) > 0 {
		if a.Sacks == nil {
			a.Sacks = make([]seg.SackBlock, 0, 3)
		}
		n := len(r.ooo)
		for i := n - 1; i >= 0 && len(a.Sacks) < 3; i-- {
			a.Sacks = append(a.Sacks, r.ooo[i])
		}
	}
	if r.returnAck != nil {
		r.returnAck(a)
	} else {
		r.path.ReturnAckFlow(a)
	}
}

// Reset re-initializes the receiver for its connection's next incarnation
// (the conn has already been Reset with a fresh flow id). The wiring, the
// stopped GRO flush timer's handle and the ooo slice's capacity carry over;
// everything else is zeroed and open registers the new id on the path's ACK
// return, exactly as for a new receiver.
func (r *Receiver) Reset() {
	r.flush.Stop()
	*r = Receiver{
		eng: r.eng, path: r.path, conn: r.conn,
		rxPool: r.rxPool, returnAck: r.returnAck,
		flush: r.flush, ooo: r.ooo[:0],
	}
	r.open()
}

// GoodBytes returns the in-order bytes delivered so far.
func (r *Receiver) GoodBytes() units.DataSize { return r.goodBytes }

// Demux routes packets arriving at the server to per-connection receivers.
type Demux struct {
	rx   map[int]*Receiver
	pool *seg.Pool
	// orphans counts packets that arrived for an unregistered flow — under
	// churn, data still in flight when its flow was retired.
	orphans uint64
}

// Orphans returns how many packets arrived for unregistered flows.
func (d *Demux) Orphans() uint64 { return d.orphans }

// NewDemux returns an empty demultiplexer; install it with path.SetReceiver.
func NewDemux() *Demux { return &Demux{rx: make(map[int]*Receiver)} }

// SetPool attaches the run's pool so packets for unknown flows (dropped
// silently) are still released.
func (d *Demux) SetPool(pool *seg.Pool) { d.pool = pool }

// Add registers a receiver for its connection's flow id.
func (d *Demux) Add(r *Receiver) { d.rx[r.conn.id] = r }

// Remove unregisters a flow id; packets still in flight toward it fall
// through Handle's unknown-flow path (released to the pool, counted).
func (d *Demux) Remove(flow int) { delete(d.rx, flow) }

// Handle implements the path receiver callback.
func (d *Demux) Handle(pkt *seg.Packet) {
	if r, ok := d.rx[pkt.Flow]; ok {
		r.OnPacket(pkt)
	} else {
		d.orphans++
		d.pool.PutPacket(pkt)
	}
}
