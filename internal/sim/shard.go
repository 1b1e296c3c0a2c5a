// Sharded execution: N engines advancing concurrently under a conservative
// (Chandy–Misra–Bryant-style) time-window protocol.
//
// The partition is by host: every mutable object (a connection, a pipe, a
// receiver) lives on exactly one shard and is only ever touched by events
// executing on that shard's engine. Shards interact exclusively through
// CrossLinks — mailboxes modelling links whose propagation delay is known
// and positive. That minimum delay is the protocol's lookahead L: an event
// executing at time t on one shard can only affect another shard at t+L or
// later, so every shard may safely run the window [T, min_next+L) in
// parallel, where min_next is the earliest pending event across all shards.
// At the window boundary all shards barrier, posted messages are merged and
// injected, and the next window begins.
//
// # Determinism
//
// The merged execution must stay byte-identical to the serial engine, which
// orders equal-time events by global schedule sequence. Three properties
// deliver that:
//
//  1. Within a shard, callbacks execute in the same order as serial (the
//     shard's events are a subsequence of the serial stream), so their
//     Schedule calls assign locally increasing sequence numbers in the same
//     relative order.
//  2. Cross-shard messages are injected at barriers sorted by
//     (deliver-time, post-time, source shard, post-sequence). For messages
//     from one source this equals the serial scheduling order exactly; for
//     multiple sources it equals serial whenever deliver times differ
//     (equal-time cross-source ties would need the serial interleaving of
//     the posts, which no longer exists — the differential tests gate that
//     such ties do not occur in the modelled workloads).
//  3. Work that must observe a globally consistent cut (warmup snapshots,
//     invariant audits) runs as a "global" at a barrier whose cut time
//     clamps the window, with every shard's clock advanced to the cut.
//
// The golden telemetry trace and the serial-vs-sharded grid differentials
// pin all three properties.
package sim

import (
	"fmt"
	"math"
	"time"
)

// crossMsg is one in-flight cross-shard delivery.
type crossMsg struct {
	arg    any
	at     time.Duration // delivery time on the destination shard
	posted time.Duration // source virtual time at Post
	seq    uint64        // per-link post sequence (FIFO tie-break)
	link   *CrossLink
}

// CrossLink is a one-directional mailbox between two shards. The source
// shard posts deliveries during its window (Post is only safe from events
// executing on the source engine); at each barrier the sharded engine
// drains every link, merges the messages deterministically and hands them
// to the link's injector on the destination engine.
type CrossLink struct {
	se       *ShardedEngine
	src, dst int
	minDelay time.Duration
	inject   func(arg any, at time.Duration)

	// pending is owned by the source shard's goroutine between barriers and
	// by the barrier (single-threaded) during the flush.
	pending []crossMsg
	postSeq uint64
}

// SetInjector installs the barrier-side delivery hook: it runs with every
// shard parked, must schedule the argument onto the destination engine at
// the given time (SchedulePAt), and must take custody of the argument so a
// run-end reclaim can reach it.
func (l *CrossLink) SetInjector(fn func(arg any, at time.Duration)) { l.inject = fn }

// Post sends arg across the link, to be delivered delay after the source
// shard's current virtual time. A delay below the link's declared minimum
// would break the conservative lookahead contract and panics — that is a
// topology wiring bug, not a runtime condition.
func (l *CrossLink) Post(arg any, delay time.Duration) {
	if delay < l.minDelay {
		panic(fmt.Sprintf("sim: cross-link %d→%d post with delay %v below lookahead %v",
			l.src, l.dst, delay, l.minDelay))
	}
	now := l.se.shards[l.src].Now()
	l.pending = append(l.pending, crossMsg{
		arg: arg, at: now + delay, posted: now, seq: l.postSeq, link: l,
	})
	l.postSeq++
}

// Pending returns how many messages are posted but not yet injected. Only
// meaningful at a barrier or after the run.
func (l *CrossLink) Pending() int { return len(l.pending) }

// DrainPending removes every posted-but-not-injected message, calling fn on
// each argument — the run-end reclaim for messages posted during the final
// window. Single-threaded use only (after Run returns).
func (l *CrossLink) DrainPending(fn func(any)) {
	for i := range l.pending {
		fn(l.pending[i].arg)
		l.pending[i] = crossMsg{}
	}
	l.pending = l.pending[:0]
}

// globalEvent is a callback that fires at a consistent cut: every shard has
// executed all events strictly before At, none at or after it, and every
// clock reads At.
type globalEvent struct {
	at    time.Duration
	every time.Duration // 0 = one-shot
	fn    func()
	done  bool
}

// shardWorker is the persistent goroutine driving one non-zero shard, fed
// one window bound per iteration. Channel handoff gives the barrier its
// happens-before edges, so the protocol is race-clean by construction.
type shardWorker struct {
	eng  *Engine
	win  chan time.Duration
	done chan struct{}
}

func (w *shardWorker) loop() {
	for until := range w.win {
		w.eng.RunUntil(until)
		w.done <- struct{}{}
	}
}

// ShardedEngine owns N engines and coordinates their conservative windows.
// Build the topology (links, globals, barrier hooks) single-threaded, then
// call Run once.
type ShardedEngine struct {
	shards    []*Engine
	links     []*CrossLink
	globals   []*globalEvent
	onBarrier []func()
	lookahead time.Duration

	globalsRun uint64
	inbox      []crossMsg
	workers    []*shardWorker
}

// NewSharded returns n engines under one window coordinator. Shard 0 is
// seeded with seed — its RNG stream is identical to a serial New(seed)
// engine, which is what keeps shard-0-resident randomness (loss draws,
// stagger jitter) byte-identical to serial. Other shards get offset seeds;
// a byte-identical partition must keep them RNG-free.
func NewSharded(seed int64, n int) *ShardedEngine {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	s := &ShardedEngine{lookahead: time.Duration(math.MaxInt64)}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, New(seed+int64(i)*1_000_003))
	}
	return s
}

// Shard returns the i-th engine. Components are built against the engine of
// the shard that owns them, exactly as they would be against a serial one.
func (s *ShardedEngine) Shard(i int) *Engine { return s.shards[i] }

// NewLink declares a one-directional cross-shard mailbox whose deliveries
// are always at least minDelay of virtual time in the future. minDelay must
// be positive (a zero-lookahead link admits no conservative window) and the
// endpoints distinct.
func (s *ShardedEngine) NewLink(src, dst int, minDelay time.Duration) *CrossLink {
	if src == dst || src < 0 || dst < 0 || src >= len(s.shards) || dst >= len(s.shards) {
		panic(fmt.Sprintf("sim: cross-link endpoints %d→%d invalid for %d shards", src, dst, len(s.shards)))
	}
	if minDelay <= 0 {
		panic("sim: cross-link needs a positive minimum delay (the lookahead)")
	}
	l := &CrossLink{se: s, src: src, dst: dst, minDelay: minDelay}
	s.links = append(s.links, l)
	if minDelay < s.lookahead {
		s.lookahead = minDelay
	}
	return l
}

// GlobalAt schedules fn once at a consistent cut at virtual time at: every
// shard will have executed all events strictly before at and none at or
// after it. Serial equivalence: an event scheduled far in advance carries a
// low sequence number, so it too runs before same-instant work scheduled
// later — the cut reproduces that ordering without a shared counter.
func (s *ShardedEngine) GlobalAt(at time.Duration, fn func()) {
	if at < 0 {
		at = 0
	}
	s.globals = append(s.globals, &globalEvent{at: at, fn: fn})
}

// GlobalEvery schedules fn at every multiple of interval (first at
// interval), each at a consistent cut — the sharded form of a
// self-rescheduling periodic engine event (audit ticks, interval reports).
func (s *ShardedEngine) GlobalEvery(interval time.Duration, fn func()) {
	if interval <= 0 {
		panic("sim: GlobalEvery needs a positive interval")
	}
	s.globals = append(s.globals, &globalEvent{at: interval, every: interval, fn: fn})
}

// OnBarrier registers fn to run at every window barrier, after messages are
// merged and with every shard parked — the hook for cross-shard bookkeeping
// like pool-freelist rebalancing.
func (s *ShardedEngine) OnBarrier(fn func()) { s.onBarrier = append(s.onBarrier, fn) }

// SetLimits installs the budget on every shard.
func (s *ShardedEngine) SetLimits(l Limits) {
	for _, e := range s.shards {
		e.SetLimits(l)
	}
}

// LimitErr returns the first shard's tripped budget, or nil.
func (s *ShardedEngine) LimitErr() error {
	for _, e := range s.shards {
		if err := e.LimitErr(); err != nil {
			return err
		}
	}
	return nil
}

// Processed returns the events executed across all shards plus the global
// callbacks fired at cuts. Globals are ordinary engine events in a serial
// run, so this total is integer-identical to the serial engine's Processed
// for a byte-identical partition — grid rows and archives carry it.
func (s *ShardedEngine) Processed() uint64 {
	n := s.globalsRun
	for _, e := range s.shards {
		n += e.Processed()
	}
	return n
}

// nextGlobal returns the earliest pending global (ties broken by
// registration order — the slice order), or nil.
func (s *ShardedEngine) nextGlobal() *globalEvent {
	var g *globalEvent
	for _, e := range s.globals {
		if e.done {
			continue
		}
		if g == nil || e.at < g.at {
			g = e
		}
	}
	return g
}

// fireGlobalsAt runs every global due exactly at the cut, in registration
// order, counting each as one processed event (its serial identity).
func (s *ShardedEngine) fireGlobalsAt(at time.Duration) {
	for _, g := range s.globals {
		if g.done || g.at != at {
			continue
		}
		g.fn()
		s.globalsRun++
		if g.every > 0 {
			g.at += g.every
		} else {
			g.done = true
		}
	}
}

// flushLinks merges every link's posted messages and injects them in the
// deterministic (at, posted, src, seq) order. Runs at a barrier. The merge
// buffer is insertion-sorted: per-window batches are small (a window spans
// one lookahead of traffic) and the sort must not allocate.
func (s *ShardedEngine) flushLinks() {
	buf := s.inbox[:0]
	for _, l := range s.links {
		for i := range l.pending {
			m := l.pending[i]
			l.pending[i] = crossMsg{}
			j := len(buf)
			buf = append(buf, m)
			for j > 0 && crossLess(&m, &buf[j-1]) {
				buf[j] = buf[j-1]
				j--
			}
			buf[j] = m
		}
		l.pending = l.pending[:0]
	}
	for i := range buf {
		buf[i].link.inject(buf[i].arg, buf[i].at)
		buf[i] = crossMsg{}
	}
	s.inbox = buf[:0]
}

// crossLess is the deterministic cross-shard merge order.
func crossLess(a, b *crossMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.posted != b.posted {
		return a.posted < b.posted
	}
	if a.link.src != b.link.src {
		return a.link.src < b.link.src
	}
	return a.seq < b.seq
}

// startWorkers spawns the persistent per-shard goroutines (shard 0 runs on
// the caller's goroutine).
func (s *ShardedEngine) startWorkers() {
	for _, e := range s.shards[1:] {
		w := &shardWorker{eng: e, win: make(chan time.Duration), done: make(chan struct{})}
		s.workers = append(s.workers, w)
		go w.loop()
	}
}

// stopWorkers retires the worker goroutines.
func (s *ShardedEngine) stopWorkers() {
	for _, w := range s.workers {
		close(w.win)
	}
	s.workers = nil
}

// runWindow advances every shard concurrently to the window bound
// (exclusive) and barriers.
func (s *ShardedEngine) runWindow(until time.Duration) {
	for _, w := range s.workers {
		w.win <- until
	}
	s.shards[0].RunUntil(until)
	for _, w := range s.workers {
		<-w.done
	}
}

// Run executes the window loop until the virtual clock reaches end or no
// work remains, mirroring Engine.Run's contract: events at exactly end are
// executed, and every shard's clock finishes at end even if the queues
// drain early. On a tripped budget (SetLimits) it stops without advancing,
// exactly as the serial engine does; inspect LimitErr.
func (s *ShardedEngine) Run(end time.Duration) {
	if len(s.shards) == 1 && len(s.globals) == 0 {
		// Degenerate single shard: the serial engine, bit for bit.
		s.shards[0].Run(end)
		return
	}
	s.startWorkers()
	defer s.stopWorkers()
	for {
		if s.LimitErr() != nil {
			return
		}
		minNext := time.Duration(math.MaxInt64)
		have := false
		for _, e := range s.shards {
			if t, ok := e.NextEventTime(); ok && t < minNext {
				minNext, have = t, true
			}
		}
		g := s.nextGlobal()
		if g != nil && g.at > end {
			g = nil // past the horizon; serial would never run it either
		}
		if (!have || minNext > end) && g == nil {
			break
		}
		if g != nil && (!have || g.at <= minNext) {
			// Consistent cut: all events before g.at have run everywhere.
			for _, e := range s.shards {
				e.AdvanceTo(g.at)
			}
			s.fireGlobalsAt(g.at)
			continue
		}
		until := minNext + s.lookahead
		if len(s.links) == 0 {
			// No cross-shard traffic: the shards are independent and may
			// run straight to the next cut.
			until = end + 1
		}
		if until > end {
			until = end + 1 // events at exactly end are inclusive
		}
		if g != nil && until > g.at {
			until = g.at
		}
		s.runWindow(until)
		s.flushLinks()
		for _, fn := range s.onBarrier {
			fn()
		}
	}
	for _, e := range s.shards {
		e.AdvanceTo(end)
	}
}
