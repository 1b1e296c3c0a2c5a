package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// refSched is a naive sorted-slice reference scheduler: events fire in
// strict (at, seq) order, cancellation is a flag, and rescheduling retires
// the old entry and appends a new one consuming exactly one sequence number
// — the same contract the engine implements with its heap + wheel hybrid.
type refSched struct {
	now    time.Duration
	seq    uint64
	events []refEvent
}

type refEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	cancelled bool
}

func (r *refSched) schedule(delay time.Duration, id int) int {
	if delay < 0 {
		delay = 0
	}
	r.events = append(r.events, refEvent{at: r.now + delay, seq: r.seq, id: id})
	r.seq++
	return len(r.events) - 1
}

// pop removes and returns the earliest live event, or nil.
func (r *refSched) pop() *refEvent {
	best := -1
	for i := range r.events {
		e := &r.events[i]
		if e.cancelled {
			continue
		}
		if best < 0 || e.at < r.events[best].at ||
			(e.at == r.events[best].at && e.seq < r.events[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	ev := r.events[best]
	r.events = append(r.events[:best], r.events[best+1:]...)
	if ev.at > r.now {
		r.now = ev.at
	}
	return &ev
}

// horizons mixes delays so every tier gets traffic: wheel level 0
// (sub-16ms), level 1 (sub-4s), the heap (beyond), and zero-delay events.
var horizons = []time.Duration{
	100 * time.Microsecond,
	5 * time.Millisecond,
	100 * time.Millisecond,
	3 * time.Second,
	20 * time.Second,
}

// TestDifferentialVsReference drives 10k random schedule/cancel/reschedule/
// step operations through the engine and the reference scheduler in
// lockstep, asserting that every fired event matches in (id, time) and that
// the engine's internal accounting stays consistent throughout.
func TestDifferentialVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	eng := New(1)
	ref := &refSched{}

	var fired []int
	timers := map[int]*Timer{} // live engine timers by op id
	nextID := 0
	wheelMoves := 0 // successful reschedules of a wheel-resident item

	refFind := func(id int) int {
		for i := range ref.events {
			if ref.events[i].id == id && !ref.events[i].cancelled {
				return i
			}
		}
		return -1
	}

	liveIDs := func() []int {
		ids := make([]int, 0, len(timers))
		for id := range timers {
			ids = append(ids, id)
		}
		// map order is random; sort for determinism.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		return ids
	}

	const ops = 10000
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.45: // schedule
			id := nextID
			nextID++
			delay := time.Duration(rng.Int63n(int64(horizons[rng.Intn(len(horizons))])))
			tm := eng.Schedule(delay, func() { fired = append(fired, id) })
			timers[id] = &tm
			ref.schedule(delay, id)
		case r < 0.55: // cancel a random live timer
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if timers[id].Stop() {
				if i := refFind(id); i >= 0 {
					ref.events[i].cancelled = true
				} else {
					t.Fatalf("op %d: engine stopped id %d but reference has no live entry", op, id)
				}
			}
			delete(timers, id)
		case r < 0.70: // reschedule a random live timer
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			delay := time.Duration(rng.Int63n(int64(horizons[rng.Intn(len(horizons))])))
			inWheel := false
			if it := timers[id].live(); it != nil {
				inWheel = it.where == wWheel0 || it.where == wWheel1
			}
			if timers[id].Reschedule(delay) {
				if inWheel {
					wheelMoves++
				}
				i := refFind(id)
				if i < 0 {
					t.Fatalf("op %d: engine rescheduled id %d but reference has no live entry", op, id)
				}
				ref.events[i].cancelled = true
				ref.schedule(delay, id)
			} else {
				delete(timers, id)
			}
		default: // fire one event
			stepped := eng.Step()
			want := ref.pop()
			if stepped != (want != nil) {
				t.Fatalf("op %d: engine stepped=%v, reference has event=%v", op, stepped, want != nil)
			}
			if want == nil {
				continue
			}
			if len(fired) == 0 || fired[len(fired)-1] != want.id {
				got := -1
				if len(fired) > 0 {
					got = fired[len(fired)-1]
				}
				t.Fatalf("op %d: fired id %d, reference expects %d at %v", op, got, want.id, want.at)
			}
			if eng.Now() != want.at {
				t.Fatalf("op %d: engine now %v, reference %v", op, eng.Now(), want.at)
			}
			delete(timers, want.id)
		}
		if eng.Pending() != len(timers) {
			t.Fatalf("op %d: engine Pending %d, live timers %d", op, eng.Pending(), len(timers))
		}
		if op%512 == 0 {
			if err := eng.CheckQueue(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}

	// Drain both completely; order must keep matching.
	for {
		stepped := eng.Step()
		want := ref.pop()
		if stepped != (want != nil) {
			t.Fatalf("drain: engine stepped=%v, reference has event=%v", stepped, want != nil)
		}
		if want == nil {
			break
		}
		if fired[len(fired)-1] != want.id || eng.Now() != want.at {
			t.Fatalf("drain: fired id %d at %v, reference expects %d at %v",
				fired[len(fired)-1], eng.Now(), want.id, want.at)
		}
	}
	if err := eng.CheckQueue(); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("drained engine reports %d pending", eng.Pending())
	}
	// The run must have crossed chunk boundaries, or it never exercised
	// items (and heap pointers) living in more than one chunk.
	if len(eng.chunks) < 3 {
		t.Fatalf("arena reached %d chunks, want >= 3", len(eng.chunks))
	}
	// Keep the in-place wheel move exercised, not just the heap fix.
	t.Logf("%d reschedules moved a wheel-resident item", wheelMoves)
	if wheelMoves < 500 {
		t.Fatalf("%d reschedules hit a wheel-resident item, want >= 500", wheelMoves)
	}
}

// TestRescheduleInPlace: re-arming a wheel-resident timer moves its one
// queue item — no retired copy, no new handle, no allocation — and a move
// from any chain position (head, middle, tail) keeps the (at, seq) order.
func TestRescheduleInPlace(t *testing.T) {
	eng := New(1)
	var fired0, fired1 []time.Duration
	t0 := eng.Schedule(100*time.Microsecond, func() { fired0 = append(fired0, eng.Now()) })
	t1 := eng.Schedule(200*time.Millisecond, func() { fired1 = append(fired1, eng.Now()) })
	h0, h1 := t0, t1
	// Each re-arm lands in a different slot of the timer's own level.
	d0 := func(i int) time.Duration { return 100*time.Microsecond + time.Duration(i%50)*wheelGran0 }
	d1 := func(i int) time.Duration { return 200*time.Millisecond + time.Duration(i%50)*wheelGran1 }
	rearm := func(i int) {
		if !t0.Reschedule(d0(i)) || !t1.Reschedule(d1(i)) {
			t.Fatalf("re-arm %d failed", i)
		}
	}
	// A stopped timer re-arms in place too.
	if !t1.Stop() || !t1.Reschedule(d1(0)) || !t1.Pending() {
		t.Fatal("stopped level-1 timer did not re-arm")
	}
	const n = 10000
	for i := 0; i < n; i++ {
		rearm(i)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { rearm(n - 1) }); allocs != 0 {
			t.Errorf("re-arming two wheel timers allocates %.1f objects, want 0", allocs)
		}
	}
	if t0 != h0 || t1 != h1 {
		t.Fatalf("handles moved: %+v -> %+v, %+v -> %+v", h0, t0, h1, t1)
	}
	if w0, w1 := t0.live().where, t1.live().where; w0 != wWheel0 || w1 != wWheel1 {
		t.Fatalf("timers in states %d, %d, want wheel levels 0 and 1", w0, w1)
	}
	if got := eng.MaxPending(); got != 2 {
		t.Fatalf("MaxPending = %d after %d re-arms each, want 2", got, n)
	}
	if err := eng.CheckQueue(); err != nil {
		t.Fatal(err)
	}
	eng.Run(10 * time.Second)
	if len(fired0) != 1 || fired0[0] != d0(n-1) || len(fired1) != 1 || fired1[0] != d1(n-1) {
		t.Fatalf("fired at %v and %v, want [%v] and [%v]", fired0, fired1, d0(n-1), d1(n-1))
	}

	// Mid-chain moves: three timers share one level-0 slot and three share
	// one level-1 slot. Each slot's head moves earlier, its middle later,
	// and its tail past the wheel into the heap.
	eng = New(1)
	ref := &refSched{}
	var got []int
	var tm [6]Timer
	at := [6]time.Duration{
		6400 * time.Microsecond, 6420 * time.Microsecond, 6440 * time.Microsecond, // level-0 tick 100
		330 * time.Millisecond, 335 * time.Millisecond, 340 * time.Millisecond, // level-1 tick 20
	}
	for id, d := range at {
		tm[id] = eng.Schedule(d, func() { got = append(got, id) })
		ref.schedule(d, id)
	}
	for _, c := range []struct {
		l    *wheelLevel
		tick int64
		ids  [3]int // head, middle, tail: the last scheduled is the head
	}{{&eng.w0, 100, [3]int{2, 1, 0}}, {&eng.w1, 20, [3]int{5, 4, 3}}} {
		var chain []int32
		for idx := c.l.slots[c.tick%wheelSlots]; idx >= 0; idx = eng.item(idx).next {
			chain = append(chain, idx)
		}
		want := []int32{tm[c.ids[0]].idx, tm[c.ids[1]].idx, tm[c.ids[2]].idx}
		if !reflect.DeepEqual(chain, want) {
			t.Fatalf("slot chain %v, want %v", chain, want)
		}
	}
	moves := []struct {
		id    int
		delay time.Duration
	}{
		{2, time.Millisecond},                  // level-0 head: earlier
		{1, 12 * time.Millisecond},             // level-0 middle: later
		{0, 10 * time.Second},                  // level-0 tail: heap
		{5, 50 * time.Millisecond},             // level-1 head: earlier
		{4, 3 * time.Second},                   // level-1 middle: later
		{3, 10*time.Second + time.Millisecond}, // level-1 tail: heap
	}
	for _, m := range moves {
		if !tm[m.id].Reschedule(m.delay) {
			t.Fatalf("Reschedule of timer %d failed", m.id)
		}
		for i := range ref.events {
			if ref.events[i].id == m.id {
				ref.events[i].cancelled = true
			}
		}
		ref.schedule(m.delay, m.id)
		if err := eng.CheckQueue(); err != nil {
			t.Fatalf("after moving timer %d: %v", m.id, err)
		}
	}
	if len(eng.heap) != 2 {
		t.Fatalf("%d items in the heap, want the two moved tails", len(eng.heap))
	}
	eng.Run(time.Minute)
	var want []int
	for ev := ref.pop(); ev != nil; ev = ref.pop() {
		want = append(want, ev.id)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order %v, reference %v", got, want)
	}
	if eng.MaxPending() != len(at) {
		t.Fatalf("MaxPending = %d, want %d", eng.MaxPending(), len(at))
	}
}

// TestRescheduleConsumesOneSeq pins the ordering parity between Reschedule
// and Stop+Schedule: two equal-time events keep their relative order no
// matter which re-arm form produced them.
func TestRescheduleConsumesOneSeq(t *testing.T) {
	eng := New(1)
	var order []string
	ta := eng.Schedule(time.Second, func() { order = append(order, "a") })
	eng.Schedule(5*time.Second, func() { order = append(order, "b") })
	// Re-arm a to the same instant as b. Reschedule consumes the next seq,
	// so a must now fire after b — exactly as Stop+Schedule would order it.
	if !ta.Reschedule(5 * time.Second) {
		t.Fatal("Reschedule on pending timer failed")
	}
	eng.Run(10 * time.Second)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

// TestRescheduleWhileFiring covers the self-re-arm path: a callback that
// reschedules its own timer keeps the same queue entry alive.
func TestRescheduleWhileFiring(t *testing.T) {
	eng := New(1)
	n := 0
	var tm Timer
	tm = eng.Schedule(time.Millisecond, func() {
		n++
		if n < 5 {
			if !tm.Reschedule(time.Millisecond) {
				t.Fatal("Reschedule from inside callback failed")
			}
		}
	})
	eng.Run(time.Second)
	if n != 5 {
		t.Fatalf("fired %d times, want 5", n)
	}
	if err := eng.CheckQueue(); err != nil {
		t.Fatal(err)
	}
}

// TestRescheduleAfterFire: once a timer has fired and been reclaimed, its
// stale handle must refuse to reschedule (and must not disturb whatever
// event now occupies the recycled slot).
func TestRescheduleAfterFire(t *testing.T) {
	eng := New(1)
	tm := eng.Schedule(time.Millisecond, func() {})
	eng.Run(time.Second)
	if tm.Reschedule(time.Millisecond) {
		t.Fatal("Reschedule succeeded on a fired timer")
	}
	if tm.Stop() {
		t.Fatal("Stop succeeded on a fired timer")
	}
	fired := false
	eng.Schedule(time.Millisecond, func() { fired = true }) // reuses the slot
	if tm.Pending() {
		t.Fatal("stale handle reports Pending for the slot's new occupant")
	}
	if tm.Reschedule(time.Hour) {
		t.Fatal("stale handle rescheduled the slot's new occupant")
	}
	eng.Run(2 * time.Second)
	if !fired {
		t.Fatal("new occupant never fired")
	}
}

// TestCancelledWheelItemReclaimed: a cancelled short-horizon timer is
// returned to the freelist when its wheel slot flushes, not leaked until
// run end.
func TestCancelledWheelItemReclaimed(t *testing.T) {
	eng := New(1)
	tm := eng.Schedule(time.Millisecond, func() { t.Fatal("cancelled timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop failed")
	}
	fired := false
	eng.Schedule(2*time.Millisecond, func() { fired = true })
	eng.Run(time.Second)
	if !fired {
		t.Fatal("live timer never fired")
	}
	if eng.queued != 0 {
		t.Fatalf("queued = %d after drain, want 0 (cancelled item leaked)", eng.queued)
	}
	// The freelist must now hold both items.
	free := 0
	for idx := eng.freeHead; idx >= 0; idx = eng.item(idx).next {
		free++
	}
	if free != int(eng.n) {
		t.Fatalf("freelist holds %d of %d items", free, eng.n)
	}
}

// TestSteadyStateNoAlloc: once warm, the schedule→fire→recycle cycle must
// not allocate.
func TestSteadyStateNoAlloc(t *testing.T) {
	eng := New(1)
	fn := func() {}
	// Warm the arena.
	for i := 0; i < 64; i++ {
		eng.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	eng.Run(time.Second)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(500*time.Microsecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f per op, want 0", allocs)
	}
}

// TestRandNotExported audits the engine's surface for satellite "rand
// behind a method": the random source must be reachable only through
// Rand(), never as a mutable exported field.
func TestRandNotExported(t *testing.T) {
	typ := reflect.TypeOf(Engine{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("Engine exports field %q; the engine's state (including its rand source) must stay method-gated", f.Name)
		}
	}
	// Same seed, same draw sequence through the method.
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("Rand() draws diverge for identical seeds")
		}
	}
}

// TestCheckQueueDetectsCorruption proves the audit actually fires on a
// broken invariant, not just on healthy queues.
func TestCheckQueueDetectsCorruption(t *testing.T) {
	eng := New(1)
	eng.Schedule(time.Hour, func() {}) // long horizon: heap-resident
	if err := eng.CheckQueue(); err != nil {
		t.Fatalf("healthy queue reported %v", err)
	}
	// The audit runs every checker tick: its visit counters are reused.
	if allocs := testing.AllocsPerRun(10, func() { eng.CheckQueue() }); allocs != 0 {
		t.Errorf("CheckQueue allocates %.0f objects per pass, want 0", allocs)
	}
	eng.livePending++ // corrupt the counter
	if err := eng.CheckQueue(); err == nil {
		t.Fatal("CheckQueue missed a corrupted live-pending counter")
	}
	eng.livePending--
	eng.heap[0].pos = 7 // corrupt a heap back-pointer
	if err := eng.CheckQueue(); err == nil {
		t.Fatal("CheckQueue missed a corrupted heap back-pointer")
	}
}

// TestCheckQueueDetectsBrokenBackLink: the audit walks every wheel chain's
// back links, so one wrong prev is reported with its wheel, slot and item.
func TestCheckQueueDetectsBrokenBackLink(t *testing.T) {
	eng := New(1)
	for i := 0; i < 3; i++ {
		eng.Schedule(300*time.Millisecond, func() {}) // one level-1 slot
	}
	if err := eng.CheckQueue(); err != nil {
		t.Fatalf("healthy queue reported %v", err)
	}
	slot := int64(300*time.Millisecond/wheelGran1) % wheelSlots
	head := eng.item(eng.w1.slots[slot])
	mid := eng.item(head.next)
	mid.prev = -1
	err := eng.CheckQueue()
	if err == nil {
		t.Fatal("CheckQueue missed a broken back link")
	}
	want := fmt.Sprintf("wheel 1 slot %d item %d back link -1, want %d", slot, mid.idx, head.idx)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// TestWheelCursorCatchesUp: after an idle gap longer than both wheel spans,
// short timers still land in the wheel instead of falling through to the
// heap for the rest of the run.
func TestWheelCursorCatchesUp(t *testing.T) {
	eng := New(1)
	eng.Schedule(time.Minute, func() {})
	eng.Run(2 * time.Minute)
	near := eng.Schedule(100*time.Microsecond, func() {})
	mid := eng.Schedule(200*time.Millisecond, func() {})
	if w0, w1 := near.live().where, mid.live().where; w0 != wWheel0 || w1 != wWheel1 {
		t.Fatalf("after the gap timers went to states %d, %d, want wheel levels 0 and 1", w0, w1)
	}
	if err := eng.CheckQueue(); err != nil {
		t.Fatal(err)
	}
}
