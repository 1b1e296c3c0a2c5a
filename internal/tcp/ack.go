package tcp

import (
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/seg"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// OnAckArrival is the entry point for ACKs returning from the network. The
// ACK is charged to the CPU (tcp_ack fast path plus the congestion module's
// model cost) before any protocol state changes — so under CPU saturation
// ACK processing queues up and measured RTTs inflate, exactly the softirq
// backlog the paper observes on low-end configurations.
func (c *Conn) OnAckArrival(a *seg.Ack) {
	if c.done {
		// A stopped connection is still the ACK's sink point.
		c.arena.pool.PutAck(a)
		return
	}
	costs := c.arena.cpu.Costs()
	if c.arena.ftab != nil {
		// Flow-table demux: fast-path hit or slow-path walk, with
		// promotion past the offload threshold (SmartNIC cost model).
		c.arena.cpu.Submit(cpumodel.OpFlowLookup, c.arena.ftab.LookupCost(c.id), nil)
	}
	c.arena.cpu.Submit(cpumodel.OpAckProcess, costs.AckProcess, nil)
	c.pendingAcks.Push(a)
	if c.arena.agg != nil {
		c.arena.agg.heldAcks++
	}
	c.job(c.arena.cpu, cpumodel.OpCCUpdate, c.ccMod.AckCost(), connProcessAck)
}

// ackScratch is processAck's per-ACK working state: the rate sample handed
// to the congestion module (deliver counts into rs.AckedSacked) and the
// snapshots of the newest packet this ACK delivered. It is parked on the
// connection, reset at the top of every processAck and valid only within
// that call, so the ACK path puts nothing on the heap.
type ackScratch struct {
	rs           cc.RateSample
	bestSnap     int64 // newest snapDelivered among delivered packets, -1 = none
	priorTime    time.Duration
	sendInterval time.Duration
}

// deliver marks p delivered (cumulatively acked or SACKed) and folds it into
// the current ACK's scratch.
func (c *Conn) deliver(p *pktInfo) {
	if p.acked {
		return
	}
	p.acked = true
	if p.inFlite {
		p.inFlite = false
		c.inflight--
	}
	k := &c.ack
	k.rs.AckedSacked++
	c.delivered++
	// tcp_rate_skb_delivered: adopt the newest acked packet's
	// snapshots and move the send-window origin to its send time.
	if p.snapDelivered >= k.bestSnap {
		k.bestSnap = p.snapDelivered
		k.priorTime = p.snapDeliveredTime
		k.sendInterval = p.sentAt - p.snapFirstTx
		k.rs.IsAppLimited = p.snapAppLimited
		c.firstTx = p.sentAt
	}
}

// processAck runs once the CPU has finished the ACK's protocol work. It is
// the ACK's sink point: on every return path the ACK goes back to the pool.
// The SACK blocks in a.Sacks are therefore only valid within this call —
// the scoreboard copies the ranges it needs, never the slice.
func (c *Conn) processAck(a *seg.Ack) {
	c.pendingAcks.Remove(a)
	if c.arena.agg != nil {
		c.arena.agg.heldAcks--
	}
	if !c.land() {
		c.arena.pool.PutAck(a)
		return
	}
	now := c.arena.eng.Now()
	priorInflight := c.inflight
	priorUna := c.sndUna

	// The per-ACK working state lives on the connection (see ackScratch):
	// reset here, valid until this call returns.
	c.ack = ackScratch{
		rs:       cc.RateSample{Delivered: -1, Interval: -1, RTT: -1},
		bestSnap: -1,
	}
	rs := &c.ack.rs

	// Cumulative ACK. Popped entries leave the scoreboard for good, so
	// each goes back to the entry pool once delivered.
	if a.CumAck > c.sndUna {
		for _, p := range c.board.popAcked(a.CumAck, &c.arena.infos) {
			if p.sacked {
				// Already delivered when SACKed; just retire.
				p.acked = true
			} else {
				c.deliver(p)
			}
			c.retire(p)
		}
		c.sndUna = a.CumAck
		c.rtoBackoff = 0
	}

	// SACK blocks.
	for _, b := range a.Sacks {
		for _, p := range c.board.markSacked(b.Start, b.End, &c.arena.infos) {
			c.deliver(p)
		}
	}

	deliveredPkt := rs.AckedSacked
	if deliveredPkt > 0 {
		c.deliveredTime = now
		c.lastProgress = now
		// The rtx-queue walk frees one scoreboard entry per covered
		// packet (tcp_clean_rtx_queue); charge it now — the latency
		// lands on whatever work queues behind this ACK.
		c.arena.cpu.Submit(cpumodel.OpAckProcess,
			float64(deliveredPkt)*c.arena.cpu.Costs().AckPerSeg, nil)
	}

	// RTT sample (Karn's rule: never from retransmitted segments).
	if !a.EchoRetx && a.EchoSentAt > 0 {
		if rtt := now - a.EchoSentAt; rtt > 0 {
			c.updateRTT(rtt)
			rs.RTT = rtt
		}
	}

	// F-RTO-style spurious-timeout detection: if the first forward
	// progress after an RTO is an ACK echoing an original (never
	// retransmitted) packet sent before the timeout, the original was
	// merely delayed — the timeout was spurious. Undo the collapse.
	// Progress driven by a retransmission proves the timeout genuine and
	// invalidates the snapshot.
	if c.undoValid && a.CumAck > priorUna {
		if c.state == cc.StateLoss && !a.EchoRetx &&
			a.EchoSentAt > 0 && a.EchoSentAt < c.undoAt {
			c.undoSpuriousRTO()
		} else {
			c.undoValid = false
		}
	}

	// Loss detection.
	// RACK reordering window: a quarter RTT, clamped to [1ms, 10ms].
	reoWnd := c.srtt / 4
	if reoWnd < time.Millisecond {
		reoWnd = time.Millisecond
	}
	if reoWnd > 10*time.Millisecond {
		reoWnd = 10 * time.Millisecond
	}
	newLost := c.board.detectLosses(dupThresh, reoWnd, &c.arena.infos)
	for _, p := range newLost {
		if p.inFlite {
			p.inFlite = false
			c.inflight--
		}
		c.lostTotal++
	}
	rs.Losses = int64(len(newLost))

	// Recovery state machine.
	if len(newLost) > 0 && c.state == cc.StateOpen {
		c.setState(cc.StateRecovery)
		c.recoveryPoint = c.sndNxt
		c.ccMod.OnEvent(c, cc.EventEnterRecovery)
	}
	if c.state != cc.StateOpen && a.CumAck >= c.recoveryPoint {
		c.setState(cc.StateOpen)
		c.undoValid = false
		c.ccMod.OnEvent(c, cc.EventExitRecovery)
	}

	// ECN: count echoes and fire the classic-ECN response point at most
	// once per RTT (tcp_ecn_rcv_ece-style rate limiting).
	rs.CECount = a.CECount
	if a.CECount > 0 {
		if now-c.lastECEResponse >= c.srtt && c.state == cc.StateOpen {
			c.lastECEResponse = now
			c.ccMod.OnEvent(c, cc.EventECE)
		}
	}

	// Rate sample generation (tcp_rate_gen).
	rs.PriorInFlight = priorInflight
	if bestSnap := c.ack.bestSnap; bestSnap >= 0 {
		rs.PriorDelivered = bestSnap
		rs.Delivered = c.delivered - bestSnap
		ackInterval := now - c.ack.priorTime
		iv := c.ack.sendInterval
		if ackInterval > iv {
			iv = ackInterval
		}
		rs.Interval = iv
		if minr := c.MinRTT(); minr > 0 && iv < minr {
			// Too short to be a trustworthy bandwidth sample.
			rs.Interval = -1
		}
	}
	if c.appLimited > 0 && c.delivered > c.appLimited {
		c.appLimited = 0
	}

	if c.met != nil {
		if deliveredPkt > 0 {
			c.met.AckBatch.Observe(float64(deliveredPkt))
		}
		if rate := rs.DeliveryRate(seg.MSS); rate > 0 {
			c.met.DeliveryRate.Observe(rate.Mbit())
		}
	}

	c.ccMod.OnAck(c, rs)
	if !c.ccMod.WantsPacing() {
		c.updatePacingRateFromCwnd()
	}

	// RTO management.
	if c.inflight > 0 || c.board.firstLost() != nil {
		c.armRTO()
	} else {
		c.rtoTimer.Stop()
	}

	// Freed window means room in the socket buffer for the app writer,
	// then the ACK clock triggers a send attempt.
	c.appPump()
	c.trySend()
	if a.CumAck > priorUna {
		c.streamProgress()
	}
	c.arena.pool.PutAck(a)
}

// undoSpuriousRTO restores the pre-timeout cwnd/ssthresh, un-condemns the
// never-retransmitted entries (their originals are still in flight), and
// tells the congestion module — tcp_try_undo_recovery for the RTO case.
func (c *Conn) undoSpuriousRTO() {
	c.undoValid = false
	c.spuriousRTOs++
	for range c.board.undoLost(&c.arena.infos) {
		c.inflight++
		c.lostTotal--
	}
	if c.undoCwnd > c.cwnd {
		c.SetCwnd(c.undoCwnd)
	}
	c.ssthresh = c.undoSsthresh
	if c.arena.bus != nil {
		c.arena.bus.Emit(telemetry.Event{
			Kind: telemetry.KindSpuriousRTO, Conn: c.id,
			Value: float64(c.undoCwnd),
		})
	}
	c.setState(cc.StateOpen)
	c.ccMod.OnEvent(c, cc.EventSpuriousRTO)
}

// updateRTT applies RFC 6298 smoothing and feeds the min-RTT filter. The
// sample is measured at ACK-processing completion, so CPU queueing delay is
// part of it — matching how the kernel's srtt inflates under softirq load.
func (c *Conn) updateRTT(rtt time.Duration) {
	if c.arena.agg != nil {
		c.arena.agg.rttSum += rtt
		c.arena.agg.rttN++
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.minRTT.Update(uint64(c.arena.eng.Now()), float64(rtt))
}

// updatePacingRateFromCwnd maintains sk_pacing_rate for modules that do not
// set it themselves (tcp_update_pacing_rate): rate = ratio × cwnd×MSS/srtt,
// ratio 2.0 in slow start and 1.2 in congestion avoidance. The rate drives
// TSO autosizing always, and the pacing gate when pacing is forced on
// (paper §5.2.2's "enable pacing for Cubic" experiment).
func (c *Conn) updatePacingRateFromCwnd() {
	if c.srtt <= 0 {
		return
	}
	ratio := 1.2
	if c.cwnd < c.ssthresh/2 {
		ratio = 2.0
	}
	bytesPerRTT := float64(c.cwnd) * float64(seg.MSS)
	rate := units.Bandwidth(bytesPerRTT * 8 / c.srtt.Seconds() * ratio)
	c.SetPacingRate(rate)
}
