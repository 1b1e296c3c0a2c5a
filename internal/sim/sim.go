// Package sim implements a deterministic discrete-event simulation engine:
// a virtual clock, a hybrid timer queue (a hierarchical timer wheel for
// short-horizon timers over an inlined 4-ary min-heap), and cancellable
// timers. Every component of the testbed (CPU model, links, queues, TCP
// endpoints, pacers) schedules work on a single Engine, so a whole
// experiment runs single-threaded and reproducibly from a seed.
//
// # Scheduler internals
//
// Events live in a freelist-backed arena of fixed 256-item chunks addressed
// by int32 index. A chunk never moves once allocated, so the arena grows
// without copying and an item pointer stays valid for the engine's life.
// Steady-state scheduling performs no heap allocation: fired and cancelled
// items are recycled, and Timer handles are plain values carrying (engine,
// index, generation). A generation counter per slot makes stale handles
// inert after their item is recycled.
//
// Short-horizon timers (the pacing and delayed-ACK timers that dominate the
// paper's workload) are bucketed into a two-level timer wheel — level 0
// covers ~16 ms at 64 µs granularity, level 1 covers ~4.2 s at 16 ms
// granularity — with O(1) insert, cancel and unlink: slot chains are doubly
// linked, so Timer.Reschedule moves a wheel-resident item in place the way
// the heap re-sifts one, and the queue's high-water mark (MaxPending) counts
// no retired re-arms. Longer or too-late timers fall back to the 4-ary
// min-heap of item pointers. Before any event executes, every wheel slot
// whose window could precede the heap top is flushed into the heap, so the
// ordering contract is exactly the heap's: events fire in (time, seq) order,
// where seq is the global schedule sequence number — bit-identical to a
// single binary-heap implementation. The differential and golden-trace tests
// pin this contract.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func()

// Item location states.
const (
	wFree   uint8 = iota // on the freelist
	wHeap                // resident in the 4-ary heap
	wWheel0              // resident in wheel level 0
	wWheel1              // resident in wheel level 1
	wFiring              // popped, callback currently executing
)

// eventItem is one arena slot. Items are recycled through a freelist; gen
// increments on every recycle so stale Timer handles cannot touch the new
// occupant.
type eventItem struct {
	at  time.Duration
	seq uint64 // tie-break so equal-time events run in schedule order
	// pfn/arg are the callback: a shared function plus a pointer-shaped
	// argument, so deferring a packet/ACK delivery needs no per-event
	// closure. Schedule stores its Event as arg of runEvent.
	pfn       func(any)
	arg       any
	next      int32 // freelist / wheel-slot chain link
	prev      int32 // wheel-slot back link, -1 at the chain head
	pos       int32 // index in the heap slice, -1 when not heap-resident
	idx       int32 // own arena index, fixed when the chunk is made
	gen       uint32
	where     uint8
	cancelled bool
}

// chunkLen is the arena's chunk size in items (16 KB at 64 B per item).
const chunkLen = 256

// runEvent is the shared callback behind Schedule. A func value is
// pointer-shaped, so boxing the Event into arg does not allocate.
func runEvent(arg any) { arg.(Event)() }

// Timer is a value handle to a scheduled event that can be stopped or
// rescheduled in place. The zero Timer is inert: Stop, Pending and
// Reschedule report false, When reports 0.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// live returns the handle's arena item if the handle still refers to it.
func (t Timer) live() *eventItem {
	if t.eng == nil {
		return nil
	}
	it := t.eng.item(t.idx)
	if it.gen != t.gen || it.where == wFree {
		return nil
	}
	return it
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending. The item stays queued until the scheduler next passes
// it (pop or wheel flush), at which point it is reclaimed to the freelist.
func (t Timer) Stop() bool {
	it := t.live()
	if it == nil || it.cancelled || it.where == wFiring {
		return false
	}
	it.cancelled = true
	t.eng.livePending--
	return true
}

// Pending reports whether the timer is scheduled and has not yet fired.
func (t Timer) Pending() bool {
	it := t.live()
	return it != nil && !it.cancelled && it.where != wFiring
}

// Reschedule moves the timer to fire after delay of virtual time, reusing
// its queue entry and callback instead of cancel+Schedule — the fast path
// for the pacing, delayed-ACK and RTO timers that re-arm constantly. It
// works on a pending, stopped-but-not-reclaimed, or currently-firing timer
// and reports whether it succeeded; on false the timer is gone (fired and
// reclaimed, or never scheduled) and the caller must Schedule afresh.
// A successful Reschedule consumes one sequence number, exactly as
// Stop+Schedule would, so event ordering is unchanged between the two forms.
func (t *Timer) Reschedule(delay time.Duration) bool {
	e := t.eng
	if e == nil {
		return false
	}
	it := e.item(t.idx)
	if it.gen != t.gen || it.where == wFree {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	at := e.now + delay
	seq := e.seq
	e.seq++
	if it.cancelled { // stopped but still queued: Stop refuses a firing item
		it.cancelled = false
		e.livePending++
	}
	switch it.where {
	case wHeap:
		it.at, it.seq = at, seq
		e.heapFix(int(it.pos))
	case wWheel0, wWheel1:
		e.unlink(it)
		it.at, it.seq = at, seq
		e.place(it)
	case wFiring:
		// Re-arming from inside the callback: the item re-enters the queue
		// instead of being reclaimed when the callback returns.
		it.at, it.seq = at, seq
		e.place(it)
		e.noteQueued()
	}
	e.lastScheduled = at
	return true
}

// Timer wheel geometry. Level 0 buckets the short-horizon timers (pacing
// gaps, delayed-ACK flushes, CPU-op completions); level 1 holds the
// RTO/watchdog band. Anything beyond level 1's span — or scheduled into an
// already-flushed window — falls back to the heap.
const (
	wheelSlots = 256
	wheelWords = wheelSlots / 64
	wheelGran0 = 64 * time.Microsecond
	wheelGran1 = wheelGran0 * wheelSlots // ≈16.4 ms; span ≈4.2 s
)

// wheelLevel is one ring of slots. Invariant: every resident item's tick
// (at/gran) lies in [tick, tick+wheelSlots), so slot index tick%wheelSlots
// is collision-free and occupancy distance from the cursor orders slots.
type wheelLevel struct {
	slots [wheelSlots]int32
	occ   [wheelWords]uint64
	tick  int64 // next tick to flush; slot windows before it are empty
	count int
}

func (l *wheelLevel) init() {
	for i := range l.slots {
		l.slots[i] = -1
	}
}

// catchUp moves an empty level's cursor up to the clock's tick. Only a
// flush advances the cursor, so after an idle gap longer than the level's
// span it would trail the clock for good and every timer would fall through
// to the heap. No item can be due before now, so the skipped windows are
// empty.
func (l *wheelLevel) catchUp(now, gran time.Duration) {
	if l.count != 0 {
		return
	}
	if t := int64(now / gran); t > l.tick {
		l.tick = t
	}
}

// insert links it at the head of level l's slot for tick.
func (e *Engine) insert(l *wheelLevel, it *eventItem, tick int64) {
	slot := int(uint64(tick) % wheelSlots)
	head := l.slots[slot]
	if head >= 0 {
		e.item(head).prev = it.idx
	}
	it.next, it.prev = head, -1
	l.slots[slot] = it.idx
	l.occ[slot>>6] |= 1 << uint(slot&63)
	l.count++
}

// unlink removes a wheel-resident item from the slot its current at maps
// to, in O(1) through the chain's back links.
func (e *Engine) unlink(it *eventItem) {
	l, gran := &e.w0, wheelGran0
	if it.where == wWheel1 {
		l, gran = &e.w1, wheelGran1
	}
	if it.next >= 0 {
		e.item(it.next).prev = it.prev
	}
	if it.prev >= 0 {
		e.item(it.prev).next = it.next
	} else {
		slot := int(uint64(int64(it.at/gran)) % wheelSlots)
		l.slots[slot] = it.next
		if it.next < 0 {
			l.occ[slot>>6] &^= 1 << uint(slot&63)
		}
	}
	l.count--
}

// firstTick returns the tick of the earliest non-empty slot.
func (l *wheelLevel) firstTick() (int64, bool) {
	if l.count == 0 {
		return 0, false
	}
	start := int(uint64(l.tick) % wheelSlots)
	w, bit := start>>6, uint(start&63)
	if m := l.occ[w] &^ (1<<bit - 1); m != 0 {
		return l.tick + int64(w<<6+bits.TrailingZeros64(m)-start), true
	}
	for i := 1; i <= wheelWords; i++ {
		wi := (w + i) & (wheelWords - 1)
		m := l.occ[wi]
		if wi == w {
			m &= 1<<bit - 1
		}
		if m == 0 {
			continue
		}
		d := wi<<6 + bits.TrailingZeros64(m) - start
		if d < 0 {
			d += wheelSlots
		}
		return l.tick + int64(d), true
	}
	return 0, false
}

// take empties the slot for tick, advances the cursor past it, and returns
// the chain head.
func (l *wheelLevel) take(tick int64) int32 {
	slot := int(uint64(tick) % wheelSlots)
	head := l.slots[slot]
	l.slots[slot] = -1
	l.occ[slot>>6] &^= 1 << uint(slot&63)
	l.tick = tick + 1
	return head
}

// Limits bounds a run so a mis-wired experiment terminates with a
// diagnostic instead of looping forever. The zero value means unlimited.
type Limits struct {
	// MaxEvents stops the run after this many events have executed.
	MaxEvents uint64
	// WallClock stops the run after this much real (host) time.
	WallClock time.Duration
	// MaxStall stops the run after this many consecutive events executed
	// without the virtual clock advancing — a zero-delay self-rescheduling
	// loop churns events forever at one instant, which MaxEvents alone
	// only catches after the full (much larger) event budget. Legitimate
	// same-instant bursts (ACK batches, queue drains) are orders of
	// magnitude smaller than any useful setting.
	MaxStall uint64
}

// LimitError reports that a run hit its event or wall-clock budget. It
// carries enough context to diagnose the runaway: the virtual time the
// engine reached, the time of the last-scheduled event, and the queue depth.
type LimitError struct {
	// Reason is "max-events", "wall-clock" or "stall".
	Reason string
	// Processed is the number of events executed when the budget tripped.
	Processed uint64
	// Now is the virtual time reached.
	Now time.Duration
	// LastScheduled is the virtual time of the most recently scheduled
	// event — where the runaway chain was headed.
	LastScheduled time.Duration
	// Pending is the number of events still queued.
	Pending int
	// Elapsed is the real time spent (set for wall-clock trips).
	Elapsed time.Duration
	// StallEvents is how many consecutive events ran at one virtual
	// instant (set for stall trips).
	StallEvents uint64
}

// Error implements error.
func (e *LimitError) Error() string {
	if e.Reason == "wall-clock" {
		return fmt.Sprintf("sim: wall-clock budget exceeded after %v (virtual time %v, %d events, last event scheduled at %v, %d pending)",
			e.Elapsed, e.Now, e.Processed, e.LastScheduled, e.Pending)
	}
	if e.Reason == "stall" {
		return fmt.Sprintf("sim: virtual time stalled: %d consecutive events at %v without the clock advancing (%d events total, %d pending)",
			e.StallEvents, e.Now, e.Processed, e.Pending)
	}
	return fmt.Sprintf("sim: event budget exceeded after %d events (virtual time %v, last event scheduled at %v, %d pending)",
		e.Processed, e.Now, e.LastScheduled, e.Pending)
}

// wallCheckEvery is how many events run between wall-clock checks; reading
// the host clock per event would dominate the hot loop.
const wallCheckEvery = 8192

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Engine struct {
	now time.Duration
	seq uint64

	// chunks is the arena: item idx lives at chunks[idx/chunkLen][idx%chunkLen],
	// and n items have been handed out. Chunks are never copied or freed.
	chunks   []*[chunkLen]eventItem
	n        int32
	freeHead int32
	heap     []*eventItem
	w0, w1   wheelLevel

	// livePending counts scheduled, non-cancelled events; queued counts
	// every queue-resident item including cancelled ones awaiting reclaim
	// (the memory the queue actually holds).
	livePending int
	queued      int
	maxPending  int

	rng *rand.Rand
	// processed counts events executed, useful for runaway detection in tests.
	processed uint64

	limits        Limits
	wallStart     time.Time
	lastScheduled time.Duration
	limitErr      *LimitError
	stallRun      uint64

	// auditSeen is CheckQueue's per-item visit counter, kept so the
	// periodic audit reuses one buffer instead of allocating per pass.
	auditSeen []uint8
}

// New returns an Engine whose random source is seeded with seed. The source
// is reachable only through Rand(), so a run's randomness cannot be swapped
// out mid-flight.
func New(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed)), freeHead: -1}
	e.w0.init()
	e.w1.init()
	return e
}

// SetLimits installs an event/wall-clock budget. The wall clock starts
// counting when SetLimits is called. Zero fields are unlimited.
func (e *Engine) SetLimits(l Limits) {
	e.limits = l
	e.wallStart = time.Now()
	e.limitErr = nil
	e.stallRun = 0
}

// LimitErr returns the budget violation that stopped the run, or nil. Once
// the budget trips, Step and Run execute no further events until SetLimits
// is called again.
func (e *Engine) LimitErr() error {
	if e.limitErr == nil {
		return nil
	}
	return e.limitErr
}

// overBudget checks the limits and records a LimitError on the first trip.
func (e *Engine) overBudget() bool {
	if e.limitErr != nil {
		return true
	}
	if e.limits.MaxEvents > 0 && e.processed >= e.limits.MaxEvents {
		e.limitErr = &LimitError{
			Reason:        "max-events",
			Processed:     e.processed,
			Now:           e.now,
			LastScheduled: e.lastScheduled,
			Pending:       e.Pending(),
		}
		return true
	}
	if e.limits.MaxStall > 0 && e.stallRun >= e.limits.MaxStall {
		e.limitErr = &LimitError{
			Reason:        "stall",
			Processed:     e.processed,
			Now:           e.now,
			LastScheduled: e.lastScheduled,
			Pending:       e.Pending(),
			StallEvents:   e.stallRun,
		}
		return true
	}
	if e.limits.WallClock > 0 && e.processed%wallCheckEvery == 0 {
		if elapsed := time.Since(e.wallStart); elapsed > e.limits.WallClock {
			e.limitErr = &LimitError{
				Reason:        "wall-clock",
				Processed:     e.processed,
				Now:           e.now,
				LastScheduled: e.lastScheduled,
				Pending:       e.Pending(),
				Elapsed:       elapsed,
			}
			return true
		}
	}
	return false
}

// Now returns the current virtual time, measured from the start of the run.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// item returns the arena slot for idx.
func (e *Engine) item(idx int32) *eventItem {
	return &e.chunks[uint32(idx)/chunkLen][uint32(idx)%chunkLen]
}

// alloc takes an item from the freelist, adding a chunk to the arena when
// the freelist is empty and every chunk is handed out.
func (e *Engine) alloc() *eventItem {
	if e.freeHead >= 0 {
		it := e.item(e.freeHead)
		e.freeHead = it.next
		return it
	}
	if int(e.n) == len(e.chunks)*chunkLen {
		c := new([chunkLen]eventItem)
		for i := range c {
			c[i].idx = e.n + int32(i)
			c[i].pos = -1
			c[i].next = -1
		}
		e.chunks = append(e.chunks, c)
	}
	it := e.item(e.n)
	e.n++
	return it
}

// recycle returns an item to the freelist, bumping its generation so stale
// Timer handles go inert.
func (e *Engine) recycle(it *eventItem) {
	it.gen++
	it.pfn = nil
	it.arg = nil
	it.cancelled = false
	it.where = wFree
	it.pos = -1
	it.next = e.freeHead
	e.freeHead = it.idx
}

// place routes an item into wheel level 0, level 1 or the heap by horizon.
func (e *Engine) place(it *eventItem) {
	e.w0.catchUp(e.now, wheelGran0)
	e.w1.catchUp(e.now, wheelGran1)
	t0 := int64(it.at / wheelGran0)
	switch {
	case t0 < e.w0.tick:
		// Window already flushed: the heap is always a correct home.
		it.where = wHeap
		e.heapPush(it)
	case t0-e.w0.tick < wheelSlots:
		it.where = wWheel0
		e.insert(&e.w0, it, t0)
	default:
		t1 := int64(it.at / wheelGran1)
		if t1 >= e.w1.tick && t1-e.w1.tick < wheelSlots {
			it.where = wWheel1
			e.insert(&e.w1, it, t1)
		} else {
			it.where = wHeap
			e.heapPush(it)
		}
	}
}

// noteQueued accounts one more queue-resident item.
func (e *Engine) noteQueued() {
	e.livePending++
	e.queued++
	if e.queued > e.maxPending {
		e.maxPending = e.queued
	}
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (run as soon as the current event completes).
func (e *Engine) Schedule(delay time.Duration, fn Event) Timer {
	if fn == nil {
		panic("sim: Schedule with nil event")
	}
	return e.ScheduleP(delay, runEvent, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at time.Duration, fn Event) Timer {
	return e.Schedule(at-e.now, fn)
}

// ScheduleP runs fn(arg) after delay of virtual time. It is the
// allocation-free form of Schedule for the data path: fn is a long-lived
// callback shared across events (a pipe's deliver function, a conn's
// ACK-process function) and arg carries the per-event payload. Because arg
// is pointer-shaped (*seg.Packet, *seg.Ack), storing it in the item's `any`
// field does not allocate, where the equivalent closure would.
// Ordering is identical to Schedule: one sequence number per call.
func (e *Engine) ScheduleP(delay time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: ScheduleP with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	it := e.alloc()
	it.at = e.now + delay
	it.seq = e.seq
	e.seq++
	it.pfn = fn
	it.arg = arg
	e.place(it)
	e.noteQueued()
	e.lastScheduled = it.at
	return Timer{eng: e, idx: it.idx, gen: it.gen}
}

// SchedulePAt is the absolute-time form of ScheduleP.
func (e *Engine) SchedulePAt(at time.Duration, fn func(any), arg any) Timer {
	return e.ScheduleP(at-e.now, fn, arg)
}

// --- inlined 4-ary min-heap over item pointers ------------------------------

// less orders items by (at, seq) — the engine-wide ordering contract.
func less(a, b *eventItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(it *eventItem) {
	e.heap = append(e.heap, it)
	it.pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) heapPop() *eventItem {
	h := e.heap
	top := h[0]
	last := h[len(h)-1]
	e.heap = h[:len(h)-1]
	if len(e.heap) > 0 {
		e.heap[0] = last
		last.pos = 0
		e.siftDown(0)
	}
	top.pos = -1
	return top
}

// heapFix restores heap order after the item at position i changed its key.
func (e *Engine) heapFix(i int) {
	e.siftUp(i)
	e.siftDown(i)
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	it := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(it, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = int32(i)
		i = p
	}
	h[i] = it
	it.pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	it := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[best]) {
				best = j
			}
		}
		if !less(h[best], it) {
			break
		}
		h[i] = h[best]
		h[i].pos = int32(i)
		i = best
	}
	h[i] = it
	it.pos = int32(i)
}

// --- queue front ------------------------------------------------------------

// flushWheel empties one slot of l: live items are re-placed (level 1 items
// cascade into level 0 or the heap; level 0 items go to the heap), cancelled
// ones are reclaimed to the freelist here instead of leaking until run end.
func (e *Engine) flushWheel(l *wheelLevel, tick int64, cascade bool) {
	idx := l.take(tick)
	for idx >= 0 {
		it := e.item(idx)
		next := it.next
		l.count--
		if it.cancelled {
			e.queued--
			e.recycle(it)
		} else if cascade {
			e.place(it)
		} else {
			it.where = wHeap
			e.heapPush(it)
		}
		idx = next
	}
}

// nextReady flushes every wheel slot whose window could precede the heap
// top and drops cancelled heap items, until the heap top is the globally
// next live event. It reports whether any event remains.
func (e *Engine) nextReady() bool {
	for {
		for len(e.heap) > 0 && e.heap[0].cancelled {
			e.queued--
			e.recycle(e.heapPop())
		}
		t0, ok0 := e.w0.firstTick()
		t1, ok1 := e.w1.firstTick()
		if !ok0 && !ok1 {
			return len(e.heap) > 0
		}
		var s0, s1 time.Duration
		if ok0 {
			s0 = time.Duration(t0) * wheelGran0
		}
		if ok1 {
			s1 = time.Duration(t1) * wheelGran1
		}
		// The heap top is globally next only if it precedes every
		// occupied wheel window; wheel items never precede their slot
		// start. Flush the coarser level first on ties — its slot may
		// contain times inside the finer slot's window.
		if len(e.heap) > 0 {
			at := e.heap[0].at
			if (!ok0 || at < s0) && (!ok1 || at < s1) {
				return true
			}
		}
		if ok1 && (!ok0 || s1 <= s0) {
			e.flushWheel(&e.w1, t1, true)
		} else {
			e.flushWheel(&e.w0, t0, false)
		}
	}
}

// Step executes the next pending event. It reports whether an event ran.
// Once the engine's budget (SetLimits) has tripped, Step runs nothing and
// returns false; inspect LimitErr.
func (e *Engine) Step() bool {
	if e.overBudget() || !e.nextReady() {
		return false
	}
	e.fire()
	return true
}

// fire pops and executes the heap top. The caller has already established,
// with nextReady, that the top is the globally next live event, and checked
// the budget — Run and RunUntil probe the queue once per event, not twice.
func (e *Engine) fire() {
	it := e.heapPop()
	e.queued--
	if it.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", it.at, e.now))
	}
	if it.at == e.now {
		e.stallRun++
	} else {
		e.stallRun = 0
	}
	e.now = it.at
	it.where = wFiring
	e.livePending--
	e.processed++
	it.pfn(it.arg)
	// Chunks never move, so it is still this item. Reclaim unless the
	// callback rescheduled it back into the queue.
	if it.where == wFiring {
		e.recycle(it)
	}
}

// Run executes events until the virtual clock reaches end or no events
// remain. Events scheduled exactly at end are executed. The clock is
// advanced to end even if the event queue drains early, so subsequent
// measurements see a consistent elapsed time.
func (e *Engine) Run(end time.Duration) {
	for e.nextReady() {
		if e.heap[0].at > end {
			break
		}
		if e.overBudget() {
			// Budget tripped; stop without advancing the clock so the
			// diagnostic reflects where the run actually got to.
			return
		}
		e.fire()
	}
	if e.now < end {
		e.now = end
	}
}

// RunUntil executes events strictly before the virtual time `before`,
// leaving the clock at the last executed event. Unlike Run it never
// advances the clock past the events it ran, so a caller can keep
// injecting work at times >= before and resume — the sharded engine's
// window loop is built on exactly this contract.
func (e *Engine) RunUntil(before time.Duration) {
	for e.nextReady() {
		if e.heap[0].at >= before || e.overBudget() {
			return
		}
		e.fire()
	}
}

// NextEventTime returns the virtual time of the earliest pending event. The
// second result is false when the queue is empty. The sharded engine's
// conservative window protocol derives each synchronization horizon from it.
func (e *Engine) NextEventTime() (time.Duration, bool) {
	if !e.nextReady() {
		return 0, false
	}
	return e.heap[0].at, true
}

// AdvanceTo moves the clock forward to t without executing anything; times
// at or before now are a no-op. The sharded engine uses it at barrier cuts
// so globally scheduled callbacks observe the cut time, and at run end so
// every shard finishes with a consistent elapsed time (matching Run's
// drain-early behaviour).
func (e *Engine) AdvanceTo(t time.Duration) {
	if t > e.now {
		e.now = t
	}
}

// MaxPending returns the event queue's high-water mark over the run: the
// memory the queue actually held, including stopped items awaiting reclaim.
// A rescheduled timer keeps its one item, so re-arms never add to it.
func (e *Engine) MaxPending() int { return e.maxPending }

// Pending returns the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int { return e.livePending }

// CorruptQueueForTest deliberately skews the live-pending counter so tests
// can prove the queue audit catches real accounting bugs. Test-only.
func (e *Engine) CorruptQueueForTest() { e.livePending++ }

// CheckQueue audits the scheduler's internal accounting: every arena item
// is exactly one of heap-resident (with a correct back-pointer), wheel-
// resident (within its level's window, with a correct back link), firing,
// or free; and the live/queued counters match a full walk. The invariant
// checker calls this each audit tick; it returns nil when the queue is
// consistent.
func (e *Engine) CheckQueue() error {
	if cap(e.auditSeen) < int(e.n) {
		e.auditSeen = make([]uint8, len(e.chunks)*chunkLen)
	}
	seen := e.auditSeen[:e.n]
	clear(seen)
	for pos, it := range e.heap {
		idx := it.idx
		if idx < 0 || idx >= e.n || e.item(idx) != it {
			return fmt.Errorf("sim: heap slot %d holds a pointer outside the arena (index %d)", pos, idx)
		}
		if it.where != wHeap {
			return fmt.Errorf("sim: heap slot %d holds item %d in state %d", pos, idx, it.where)
		}
		if int(it.pos) != pos {
			return fmt.Errorf("sim: heap item %d back-pointer %d != position %d", idx, it.pos, pos)
		}
		seen[idx]++
	}
	wheels := [...]struct {
		l    *wheelLevel
		gran time.Duration
		st   uint8
	}{{&e.w0, wheelGran0, wWheel0}, {&e.w1, wheelGran1, wWheel1}}
	wheelCount := 0
	for wi, w := range wheels {
		n := 0
		for slot, head := range w.l.slots {
			occupied := w.l.occ[slot>>6]&(1<<uint(slot&63)) != 0
			if occupied != (head >= 0) {
				return fmt.Errorf("sim: wheel %d slot %d occupancy bit %v but head %d", wi, slot, occupied, head)
			}
			for prev, idx := int32(-1), head; idx >= 0; prev, idx = idx, e.item(idx).next {
				it := e.item(idx)
				if it.prev != prev {
					return fmt.Errorf("sim: wheel %d slot %d item %d back link %d, want %d", wi, slot, idx, it.prev, prev)
				}
				if it.where != w.st {
					return fmt.Errorf("sim: wheel %d slot %d holds item %d in state %d", wi, slot, idx, it.where)
				}
				tick := int64(it.at / w.gran)
				if tick < w.l.tick || tick-w.l.tick >= wheelSlots {
					return fmt.Errorf("sim: wheel %d item %d tick %d outside window [%d, %d)", wi, idx, tick, w.l.tick, w.l.tick+wheelSlots)
				}
				seen[idx]++
				n++
			}
		}
		if n != w.l.count {
			return fmt.Errorf("sim: wheel %d count %d != walked %d", wi, w.l.count, n)
		}
		wheelCount += n
	}
	free := 0
	for idx := e.freeHead; idx >= 0; idx = e.item(idx).next {
		if w := e.item(idx).where; w != wFree {
			return fmt.Errorf("sim: freelist holds item %d in state %d", idx, w)
		}
		seen[idx]++
		free++
	}
	firing, live := 0, 0
	for idx := int32(0); idx < e.n; idx++ {
		it := e.item(idx)
		if it.where == wFiring {
			firing++
			seen[idx]++
		}
		if seen[idx] != 1 {
			return fmt.Errorf("sim: item %d appears %d times across heap/wheels/freelist (state %d)", idx, seen[idx], it.where)
		}
		if (it.where == wHeap || it.where == wWheel0 || it.where == wWheel1) && !it.cancelled {
			live++
		}
	}
	if firing > 1 {
		return fmt.Errorf("sim: %d items firing at once", firing)
	}
	if queued := len(e.heap) + wheelCount; queued != e.queued {
		return fmt.Errorf("sim: queued counter %d != resident items %d", e.queued, queued)
	}
	if live != e.livePending {
		return fmt.Errorf("sim: live-pending counter %d != walked live items %d", e.livePending, live)
	}
	return nil
}
