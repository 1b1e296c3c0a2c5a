package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestArenaBytesPerItem: growing the arena writes each item once. A fresh
// engine queues 40k wheel-resident events (delays up to 4 s, so the heap
// stays empty) and may allocate at most 1.25 item sizes per event — an
// arena that re-copies itself on growth pays several times that.
func TestArenaBytesPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	if sz := unsafe.Sizeof(eventItem{}); sz != 64 {
		t.Fatalf("eventItem is %d bytes, want 64", sz)
	}
	const n = 40000
	fn := func(any) {}
	eng := New(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		eng.ScheduleP(time.Duration(i%4000)*time.Millisecond, fn, nil)
	}
	runtime.ReadMemStats(&after)
	if len(eng.heap) != 0 {
		t.Fatalf("%d items went to the heap, want all in the wheels", len(eng.heap))
	}
	perItem := float64(after.TotalAlloc-before.TotalAlloc) / n
	limit := 1.25 * float64(unsafe.Sizeof(eventItem{}))
	t.Logf("%.1f B allocated per queued item (limit %.0f)", perItem, limit)
	if perItem > limit {
		t.Fatalf("arena allocates %.1f B per item, want <= %.0f", perItem, limit)
	}
}

// TestPointersSurviveGrowth: a callback that grows the arena by several
// chunks while it fires, then re-arms its own timer, must still be the item
// the engine re-queues — fired and pending items keep their addresses.
func TestPointersSurviveGrowth(t *testing.T) {
	eng := New(1)
	counts := make([]int, 3*chunkLen)
	var fired []time.Duration
	var self Timer
	self = eng.Schedule(time.Millisecond, func() {
		fired = append(fired, eng.Now())
		if len(fired) > 1 {
			return
		}
		chunks := len(eng.chunks)
		for i := range counts {
			eng.Schedule(time.Duration(i)*time.Microsecond, func() { counts[i]++ })
		}
		if len(eng.chunks) <= chunks {
			t.Fatalf("scheduling %d events kept the arena at %d chunks", len(counts), chunks)
		}
		if err := eng.CheckQueue(); err != nil {
			t.Fatalf("mid-callback: %v", err)
		}
		if !self.Reschedule(time.Second) {
			t.Fatal("Reschedule after arena growth failed")
		}
	})
	if err := eng.CheckQueue(); err != nil {
		t.Fatal(err)
	}
	eng.Run(5 * time.Second)
	if err := eng.CheckQueue(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Millisecond, time.Millisecond + time.Second}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("self-rescheduling timer fired at %v, want %v", fired, want)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("event %d fired %d times, want once", i, c)
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after the run", eng.Pending())
	}
}
