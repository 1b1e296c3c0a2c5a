// Package netem emulates the testbed network: rate-limited links with
// drop-tail queues and propagation delay, assembled into paths (device NIC →
// OpenWRT router → server), plus tc-style impairments (rate caps, extra
// delay, random loss), a WiFi rate-variation model, an LTE preset, and
// mutators (rate, delay, loss, pause/resume, burst loss) that the fault-
// injection layer drives mid-run.
package netem

import (
	"fmt"
	"time"

	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// PacketHandler consumes packets at the downstream end of a pipe.
type PacketHandler func(p *seg.Packet)

// GEConfig is a Gilbert–Elliott two-state burst-loss model: the link
// alternates between a Good and a Bad state, with independent loss rates in
// each, and per-packet transition probabilities. It reproduces the bursty
// loss of a fading radio channel that i.i.d. LossRate cannot.
type GEConfig struct {
	// PGoodToBad is the per-packet probability of entering the Bad state.
	PGoodToBad float64
	// PBadToGood is the per-packet probability of returning to Good.
	PBadToGood float64
	// LossGood is the drop probability while Good (usually ~0).
	LossGood float64
	// LossBad is the drop probability while Bad (often near 1).
	LossBad float64
}

// Validate checks that all probabilities are in [0, 1].
func (g GEConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PGoodToBad", g.PGoodToBad}, {"PBadToGood", g.PBadToGood},
		{"LossGood", g.LossGood}, {"LossBad", g.LossBad},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netem: GE %s = %v out of [0,1]", p.name, p.v)
		}
	}
	return nil
}

// PipeConfig describes one hop: a drop-tail queue draining into a serial
// link with propagation delay, optionally with i.i.d. random loss (tc netem
// style).
type PipeConfig struct {
	// Name labels the hop in error messages.
	Name string
	// Rate is the link's serialization rate.
	Rate units.Bandwidth
	// Delay is the one-way propagation delay added after serialization.
	Delay time.Duration
	// QueuePackets is the drop-tail queue capacity in packets. Zero means
	// a default of 256 (a typical device/driver ring plus qdisc backlog).
	QueuePackets int
	// LossRate is an i.i.d. random drop probability applied on entry,
	// before queueing (tc netem loss).
	LossRate float64
	// ECNThreshold, when > 0, marks packets CE instead of building queue
	// beyond this depth (a RED/CoDel-style AQM marking step); drop-tail
	// still applies at QueuePackets.
	ECNThreshold int
	// ReorderJitter adds a uniform random extra delay in [0, ReorderJitter)
	// to each packet after serialization (tc netem delay jitter), which
	// reorders packets whose spacing is below the jitter.
	ReorderJitter time.Duration
	// GE, when non-nil, enables Gilbert–Elliott burst loss on entry in
	// place of the i.i.d. LossRate (both may be set; GE is applied first).
	GE *GEConfig
}

// Validate checks the hop's parameters.
func (cfg PipeConfig) Validate() error {
	if cfg.Rate <= 0 {
		return fmt.Errorf("netem: pipe %q needs a positive rate, got %v", cfg.Name, cfg.Rate)
	}
	if cfg.Delay < 0 {
		return fmt.Errorf("netem: pipe %q has negative delay %v", cfg.Name, cfg.Delay)
	}
	if cfg.QueuePackets < 0 {
		return fmt.Errorf("netem: pipe %q has negative queue depth %d", cfg.Name, cfg.QueuePackets)
	}
	if cfg.LossRate < 0 || cfg.LossRate > 1 {
		return fmt.Errorf("netem: pipe %q loss rate %v out of [0,1]", cfg.Name, cfg.LossRate)
	}
	if cfg.ECNThreshold < 0 {
		return fmt.Errorf("netem: pipe %q has negative ECN threshold %d", cfg.Name, cfg.ECNThreshold)
	}
	if cfg.ReorderJitter < 0 {
		return fmt.Errorf("netem: pipe %q has negative reorder jitter %v", cfg.Name, cfg.ReorderJitter)
	}
	if cfg.GE != nil {
		if err := cfg.GE.Validate(); err != nil {
			return fmt.Errorf("pipe %q: %w", cfg.Name, err)
		}
	}
	return nil
}

// Pipe is a single emulated hop. Packets are enqueued, serialized at Rate in
// FIFO order, delayed by Delay, and handed to the downstream handler.
// Packets arriving to a full queue are dropped (drop-tail).
type Pipe struct {
	eng  *sim.Engine
	cfg  PipeConfig
	next PacketHandler
	pool *seg.Pool // nil outside a pooled run; drops then just unreference

	// The drop-tail queue is a fixed ring sized to QueuePackets, so
	// steady-state enqueue/dequeue never reallocates.
	q     []*seg.Packet
	qhead int
	qlen  int

	txPkt  *seg.Packet // packet mid-serialization, nil when the link is idle
	paused bool
	geBad  bool // Gilbert–Elliott state: currently Bad
	// hold tracks packets past serialization, in propagation flight: they
	// are owned by pending deliver events, and the hold list is what makes
	// them reachable for the run-end reclaim.
	hold seg.PacketList

	// txDoneFn/deliverFn are the serialization-complete and propagation-
	// complete callbacks, allocated once and carried through ScheduleP so
	// the per-packet hot path schedules without closures.
	txDoneFn  func(any)
	deliverFn func(any)

	// remote, when set, replaces local propagation: packets leaving
	// serialization are handed to it with their assigned propagation delay
	// (base + jitter) instead of being held and scheduled here. The sharded
	// path uses it to carry the last hop across a shard boundary.
	remote func(pkt *seg.Packet, delay time.Duration)

	// Stats.
	dropsQueue uint64
	delivered  uint64
}

// NewPipe returns a pipe on eng delivering to next. It rejects invalid
// configurations with an error; a nil downstream handler is a programmer
// error and panics.
func NewPipe(eng *sim.Engine, cfg PipeConfig, next PacketHandler) (*Pipe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.QueuePackets == 0 {
		cfg.QueuePackets = 256
	}
	if next == nil {
		panic("netem: pipe needs a downstream handler")
	}
	p := &Pipe{eng: eng, cfg: cfg, next: next, q: make([]*seg.Packet, cfg.QueuePackets)}
	p.txDoneFn = func(v any) { p.txDone(v.(*seg.Packet)) }
	p.deliverFn = func(v any) { p.deliver(v.(*seg.Packet)) }
	return p, nil
}

// SetPool attaches the run's packet pool: packets the pipe drops (loss
// injection, full queue) are released back to it at the drop point.
func (p *Pipe) SetPool(pool *seg.Pool) { p.pool = pool }

// SetRemote diverts post-serialization delivery to fn: custody of each
// packet transfers to fn together with its propagation delay, and the
// pipe's own hold/deliver machinery is bypassed. Used to carry a hop's
// propagation leg across a shard boundary.
func (p *Pipe) SetRemote(fn func(pkt *seg.Packet, delay time.Duration)) { p.remote = fn }

// SetRate changes the link rate for packets serialized from now on. The
// WiFi model uses this to emulate rate adaptation. Non-positive rates are a
// programmer error (use Pause for an outage) and panic.
func (p *Pipe) SetRate(r units.Bandwidth) {
	if r <= 0 {
		panic("netem: SetRate needs a positive rate (use Pause for an outage)")
	}
	p.cfg.Rate = r
}

// SetDelay changes the one-way propagation delay for packets completing
// serialization from now on. Packets already past serialization keep the
// delay they were assigned.
func (p *Pipe) SetDelay(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("netem: SetDelay with negative delay %v", d)
	}
	p.cfg.Delay = d
	return nil
}

// Delay returns the current one-way propagation delay.
func (p *Pipe) Delay() time.Duration { return p.cfg.Delay }

// SetGE installs (or, with nil, removes) a Gilbert–Elliott burst-loss model
// on the hop. The state machine starts in Good.
func (p *Pipe) SetGE(g *GEConfig) error {
	if g != nil {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	p.cfg.GE = g
	p.geBad = false
	return nil
}

// Pause halts the drain loop: nothing serializes until Resume, so the queue
// builds and eventually tail-drops — a radio blackout. A packet already
// mid-serialization completes. Pausing twice is a no-op.
func (p *Pipe) Pause() { p.paused = true }

// Resume restarts the drain loop after Pause, serving whatever queued
// during the outage.
func (p *Pipe) Resume() {
	if !p.paused {
		return
	}
	p.paused = false
	if p.txPkt == nil {
		p.serveNext()
	}
}

// geDrop advances the Gilbert–Elliott state machine by one packet and
// reports whether that packet is dropped.
func (p *Pipe) geDrop() bool {
	g := p.cfg.GE
	rng := p.eng.Rand()
	if p.geBad {
		if rng.Float64() < g.PBadToGood {
			p.geBad = false
		}
	} else {
		if rng.Float64() < g.PGoodToBad {
			p.geBad = true
		}
	}
	loss := g.LossGood
	if p.geBad {
		loss = g.LossBad
	}
	return loss > 0 && rng.Float64() < loss
}

// Enqueue offers a packet to the hop. It reports whether the packet was
// accepted. On false the packet was dropped (loss injection or full queue)
// and — the drop being one of the pool's sink points — released back to the
// run's pool; the caller must not touch it again.
func (p *Pipe) Enqueue(pkt *seg.Packet) bool {
	if p.cfg.GE != nil && p.geDrop() {
		p.pool.PutPacket(pkt)
		return false
	}
	if p.cfg.LossRate > 0 && p.eng.Rand().Float64() < p.cfg.LossRate {
		p.pool.PutPacket(pkt)
		return false
	}
	if p.qlen >= p.cfg.QueuePackets {
		p.dropsQueue++
		p.pool.PutPacket(pkt)
		return false
	}
	if p.cfg.ECNThreshold > 0 && p.qlen >= p.cfg.ECNThreshold {
		pkt.CE = true
	}
	p.q[(p.qhead+p.qlen)%len(p.q)] = pkt
	p.qlen++
	if p.txPkt == nil && !p.paused {
		p.serveNext()
	}
	return true
}

func (p *Pipe) serveNext() {
	if p.qlen == 0 || p.paused {
		return
	}
	pkt := p.q[p.qhead]
	p.q[p.qhead] = nil
	p.qhead = (p.qhead + 1) % len(p.q)
	p.qlen--
	p.txPkt = pkt
	p.eng.ScheduleP(p.cfg.Rate.TimeToSend(pkt.Len), p.txDoneFn, pkt)
}

// txDone fires when pkt's last bit leaves the link: hand it to propagation
// (or straight downstream) and start serializing the next queued packet.
func (p *Pipe) txDone(pkt *seg.Packet) {
	p.txPkt = nil
	p.delivered++
	delay := p.cfg.Delay
	if p.cfg.ReorderJitter > 0 {
		delay += time.Duration(p.eng.Rand().Int63n(int64(p.cfg.ReorderJitter)))
	}
	if p.remote != nil {
		p.remote(pkt, delay)
	} else if delay > 0 {
		p.hold.Push(pkt)
		p.eng.ScheduleP(delay, p.deliverFn, pkt)
	} else {
		p.next(pkt)
	}
	p.serveNext()
}

// deliver fires when pkt's propagation delay elapses.
func (p *Pipe) deliver(pkt *seg.Packet) {
	p.hold.Remove(pkt)
	p.next(pkt)
}

// Reclaim releases every packet the pipe still holds — ring queue,
// mid-serialization slot, propagation flight — back to the pool. The run
// harness calls it after the engine stops (pending deliver events never
// fire past the run horizon, so these packets would otherwise count as
// leaked).
func (p *Pipe) Reclaim() {
	for p.qlen > 0 {
		pkt := p.q[p.qhead]
		p.q[p.qhead] = nil
		p.qhead = (p.qhead + 1) % len(p.q)
		p.qlen--
		p.pool.PutPacket(pkt)
	}
	if p.txPkt != nil {
		p.pool.PutPacket(p.txPkt)
		p.txPkt = nil
	}
	p.hold.Drain(p.pool.PutPacket)
}

// QueueLen returns the instantaneous queue depth in packets (not counting
// the packet being serialized).
func (p *Pipe) QueueLen() int { return p.qlen }

// InTransit returns the packets the hop currently holds: queued, mid-
// serialization, and in propagation-delay flight — the invariant checker's
// view of where in-network packets are.
func (p *Pipe) InTransit() int {
	n := p.qlen + p.hold.Len()
	if p.txPkt != nil {
		n++
	}
	return n
}

// Stats returns the pipe's counters.
func (p *Pipe) Stats() PipeStats {
	return PipeStats{
		Delivered:  p.delivered,
		DropsQueue: p.dropsQueue,
	}
}

// PipeStats is a snapshot of a pipe's packet counters.
type PipeStats struct {
	Delivered  uint64
	DropsQueue uint64
}
