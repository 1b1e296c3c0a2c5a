package sim

import (
	"math/rand"
	"reflect"
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
			if timers[id].Reschedule(delay) {
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
