package netem

import (
	"fmt"
	"time"

	"mobbr/internal/seg"
	"mobbr/internal/sim"
)

// CrossWiring splits a Path across two engine shards. The whole hop chain
// — queues, rate limits, loss RNG, radio dynamics — stays on the sender
// shard, so every random draw happens on shard 0's seed-identical RNG in
// the serial order. Only the final propagation leg crosses: the last hop's
// post-serialization delivery posts the packet over a forward cross-link to
// the receiver shard, and the receiver's ACKs post back over a return link
// with the path's AckDelay. The links' minimum delays — the last hop's base
// propagation delay and the ACK return delay, both strictly positive in
// every preset — are the sharded engine's lookahead.
//
// Custody chain for a forward packet: pipe serialization (sender shard) →
// link pending (posted, pre-barrier) → receive hold + scheduled delivery
// (receiver shard) → receiver consumes. Each stage is reachable by exactly
// one reclaim path, and the stages sum to the cross census the invariant
// checker folds into its conservation audit.
type CrossWiring struct {
	rxEng *sim.Engine
	recv  PacketHandler

	fwd, back *sim.CrossLink
	// fwdHold tracks cross-delivered packets between barrier injection and
	// the delivery event on the receiver shard — the shard-crossing
	// equivalent of a pipe's propagation hold list.
	fwdHold      seg.PacketList
	fwdDeliverFn func(any)
	ackDelay     time.Duration

	// leakArmed makes the next forward injection vanish: the packet is
	// neither held, scheduled, nor released — a mailbox leak for the
	// corruption-injection tests proving the checker sees cross-shard
	// custody.
	leakArmed bool
}

// NewCrossWiring rewires path (built on se.Shard(0)) so its last hop
// delivers onto shard rxShard. It fails if either crossing leg has zero
// minimum delay — a zero-lookahead link admits no conservative window.
func NewCrossWiring(se *sim.ShardedEngine, path *Path, rxShard int) (*CrossWiring, error) {
	last := path.hops[len(path.hops)-1]
	if last.cfg.Delay <= 0 {
		return nil, fmt.Errorf("netem: sharded split needs a positive last-hop delay, got %v", last.cfg.Delay)
	}
	if path.cfg.AckDelay <= 0 {
		return nil, fmt.Errorf("netem: sharded split needs a positive ack delay, got %v", path.cfg.AckDelay)
	}
	w := &CrossWiring{
		rxEng:    se.Shard(rxShard),
		ackDelay: path.cfg.AckDelay,
	}
	w.fwd = se.NewLink(0, rxShard, last.cfg.Delay)
	w.back = se.NewLink(rxShard, 0, path.cfg.AckDelay)
	w.fwdDeliverFn = func(v any) {
		pkt := v.(*seg.Packet)
		w.fwdHold.Remove(pkt)
		w.recv(pkt)
	}
	w.fwd.SetInjector(func(arg any, at time.Duration) {
		pkt := arg.(*seg.Packet)
		if w.leakArmed {
			w.leakArmed = false
			return
		}
		w.fwdHold.Push(pkt)
		w.rxEng.SchedulePAt(at, w.fwdDeliverFn, pkt)
	})
	w.back.SetInjector(func(arg any, at time.Duration) {
		path.InjectAck(arg.(*seg.Ack), at)
	})
	// Jitter only adds to the base delay, so every posted delay clears the
	// link's lookahead; Post's own assertion guards the contract.
	last.SetRemote(func(pkt *seg.Packet, delay time.Duration) {
		w.fwd.Post(pkt, delay)
	})
	return w, nil
}

// SetReceiver attaches the receiver-shard packet handler — the counterpart
// of Path.SetReceiver, which must stay unset in a sharded run.
func (w *CrossWiring) SetReceiver(h PacketHandler) { w.recv = h }

// ReturnAck sends an ACK from the receiver shard back to the sender shard's
// return path. It replaces Path.ReturnAckFlow for sharded receivers.
func (w *CrossWiring) ReturnAck(a *seg.Ack) { w.back.Post(a, w.ackDelay) }

// CrossPackets returns forward packets in cross-shard custody: posted but
// not yet injected, plus injected but not yet delivered. At a barrier this
// is exactly the census gap between the sender path's InTransit and the
// pool's outstanding count.
func (w *CrossWiring) CrossPackets() int { return w.fwd.Pending() + w.fwdHold.Len() }

// CrossAcks returns ACKs posted back but not yet injected (injected ACKs
// already count in the path's AckInFlight).
func (w *CrossWiring) CrossAcks() int { return w.back.Pending() }

// ArmLeakForTest makes the next barrier flush drop one forward packet on
// the floor: still outstanding in the pool's census, invisible to every
// in-transit count — the cross-shard leak the checker must catch within one
// audit cycle. Test/injection use only.
func (w *CrossWiring) ArmLeakForTest() { w.leakArmed = true }

// Reclaim releases everything still in cross-shard custody after the run:
// posted-but-unflushed messages and held packets go to rxPool (the receiver
// arena — per-arena counts need not balance, only the summed census), and
// posted-back ACKs to txPool. The path's own Reclaim handles injected ACKs.
func (w *CrossWiring) Reclaim(txPool, rxPool *seg.Pool) {
	w.fwd.DrainPending(func(v any) { rxPool.PutPacket(v.(*seg.Packet)) })
	w.fwdHold.Drain(rxPool.PutPacket)
	w.back.DrainPending(func(v any) { txPool.PutAck(v.(*seg.Ack)) })
}
