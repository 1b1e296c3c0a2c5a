package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != time.Second {
		t.Errorf("Now() = %v, want 1s after Run(1s)", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run(time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.Step()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Errorf("clock moved backwards to %v", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.Schedule(10*time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending after Schedule")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.Schedule(time.Millisecond, func() {})
	e.Run(time.Second)
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run(time.Second)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if got := e.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s", got)
	}
}

func TestRunStopsAtEnd(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.Run(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before 3s, want 3 (inclusive end)", len(fired))
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	// Resume and finish.
	e.Run(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d after resume, want 5", len(fired))
	}
}

func TestScheduleAt(t *testing.T) {
	e := New(1)
	var at time.Duration = -1
	e.ScheduleAt(42*time.Millisecond, func() { at = e.Now() })
	e.Run(time.Second)
	if at != 42*time.Millisecond {
		t.Fatalf("event ran at %v, want 42ms", at)
	}
}

func TestRunAll(t *testing.T) {
	e := New(1)
	n := 0
	var spin func()
	spin = func() {
		n++
		if n < 100 {
			e.Schedule(time.Microsecond, spin)
		}
	}
	e.Schedule(0, spin)
	for e.Step() {
	}
	if n != 100 || e.Pending() != 0 {
		t.Fatalf("n = %d with %d pending, want 100 and a drained queue", n, e.Pending())
	}

	// Runaway chain is bounded by the event budget.
	e2 := New(1)
	var forever func()
	forever = func() { e2.Schedule(time.Microsecond, forever) }
	e2.Schedule(0, forever)
	e2.SetLimits(Limits{MaxEvents: 50})
	for e2.Step() {
	}
	if e2.Processed() != 50 || e2.Pending() == 0 {
		t.Fatalf("unbounded chain ran %d events with %d pending, want 50 and a live queue", e2.Processed(), e2.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := New(42)
		var out []int64
		for i := 0; i < 20; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
			e.Schedule(d, func() { out = append(out, int64(e.Now())) })
		}
		e.Run(time.Second)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock never runs backwards.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		var times []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, e.Now())
			})
		}
		e.Run(time.Hour)
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			return false
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling nil event")
		}
	}()
	New(1).Schedule(0, nil)
}

func TestMaxPendingHighWater(t *testing.T) {
	e := New(1)
	if e.MaxPending() != 0 {
		t.Fatalf("fresh engine MaxPending = %d", e.MaxPending())
	}
	// Queue depth peaks at 10 while scheduling, then drains to 0.
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run(time.Second)
	if e.Pending() != 0 {
		t.Errorf("pending after run = %d", e.Pending())
	}
	if e.MaxPending() != 10 {
		t.Errorf("MaxPending = %d, want 10", e.MaxPending())
	}
}

func TestStallWatchdog(t *testing.T) {
	e := New(1)
	e.SetLimits(Limits{MaxStall: 1000})
	// A zero-delay self-rescheduling loop never advances the clock; the
	// stall watchdog must trip long before any event budget would.
	var spin func()
	spin = func() { e.Schedule(0, spin) }
	e.Schedule(time.Millisecond, spin)
	e.Run(time.Second)
	err := e.LimitErr()
	if err == nil {
		t.Fatal("stalled run returned no limit error")
	}
	le, ok := err.(*LimitError)
	if !ok {
		t.Fatalf("error is %T, want *LimitError: %v", err, err)
	}
	if le.Reason != "stall" {
		t.Fatalf("reason = %q, want stall: %v", le.Reason, le)
	}
	if le.Now != time.Millisecond {
		t.Errorf("stall detected at %v, want 1ms", le.Now)
	}
	if le.StallEvents < 1000 {
		t.Errorf("StallEvents = %d, want >= 1000", le.StallEvents)
	}
}

func TestStallWatchdogAllowsSameInstantBursts(t *testing.T) {
	e := New(1)
	e.SetLimits(Limits{MaxStall: 100})
	// 50 events per instant across many instants: the counter resets each
	// time the clock advances, so no trip.
	for ms := 1; ms <= 20; ms++ {
		for i := 0; i < 50; i++ {
			e.Schedule(time.Duration(ms)*time.Millisecond, func() {})
		}
	}
	e.Run(time.Second)
	if err := e.LimitErr(); err != nil {
		t.Fatalf("bursty but advancing run tripped the watchdog: %v", err)
	}
}

// TestEventBudgetSameThroughEveryLoop pins the limit semantics Run and
// RunUntil share with Step now that the loops fire the event they located
// themselves: exactly MaxEvents events run, the clock stays at the last one
// instead of jumping to the horizon, and an exhausted budget is only
// reported when there was still an event inside the horizon to refuse.
func TestEventBudgetSameThroughEveryLoop(t *testing.T) {
	loops := map[string]func(e *Engine){
		"Run":      func(e *Engine) { e.Run(time.Second) },
		"RunUntil": func(e *Engine) { e.RunUntil(time.Second) },
		"Step": func(e *Engine) {
			for e.Step() {
			}
		},
	}
	for name, loop := range loops {
		t.Run(name, func(t *testing.T) {
			e := New(1)
			fired := 0
			for ms := 1; ms <= 10; ms++ {
				e.Schedule(time.Duration(ms)*time.Millisecond, func() { fired++ })
			}
			e.SetLimits(Limits{MaxEvents: 4})
			loop(e)
			if fired != 4 || e.Processed() != 4 {
				t.Fatalf("fired %d, Processed %d, want 4 and 4", fired, e.Processed())
			}
			if e.Now() != 4*time.Millisecond {
				t.Errorf("clock at %v after the budget tripped, want 4ms", e.Now())
			}
			le, ok := e.LimitErr().(*LimitError)
			if !ok || le.Reason != "max-events" || le.Pending != 6 {
				t.Errorf("LimitErr = %v, want max-events with 6 pending", e.LimitErr())
			}
			if e.Step() {
				t.Error("Step ran an event past a tripped budget")
			}
		})
	}

	// Budget spent exactly at the horizon: the next event lies beyond it, so
	// Run ends normally (clock at end, no limit error).
	e := New(1)
	e.Schedule(time.Millisecond, func() {})
	e.Schedule(time.Hour, func() {})
	e.SetLimits(Limits{MaxEvents: 1})
	e.Run(time.Second)
	if e.LimitErr() != nil || e.Now() != time.Second || e.Processed() != 1 {
		t.Errorf("Run to a horizon the budget just covers: err %v, now %v, processed %d",
			e.LimitErr(), e.Now(), e.Processed())
	}
}
