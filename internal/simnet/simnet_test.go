package simnet

import (
	"testing"
	"time"

	"mobbr/internal/sim"
)

// TestShutdownUnblocks parks one proc in a Sleep that outlasts the run and
// leaves another unstarted past the horizon, with a third proc that a woken
// proc spawns: Shutdown must unwind every one of them with ErrClosed, and a
// Sleep after that fails fast instead of parking again.
func TestShutdownUnblocks(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	var errs []error
	n.Go(0, func(p *Proc) {
		errs = append(errs, n.Sleep(p, time.Hour))
		n.Go(0, func(p *Proc) { errs = append(errs, n.Sleep(p, time.Millisecond)) })
		errs = append(errs, n.Sleep(p, time.Millisecond))
	})
	n.Go(time.Hour, func(p *Proc) { errs = append(errs, n.Sleep(p, time.Millisecond)) })
	eng.Run(100 * time.Millisecond)
	n.Shutdown()
	n.Shutdown()
	if len(errs) != 4 {
		t.Fatalf("%d sleeps returned, want 4", len(errs))
	}
	for i, err := range errs {
		if err != ErrClosed {
			t.Errorf("sleep %d returned %v, want ErrClosed", i, err)
		}
	}
}

// TestSleepOrder pins the baton's determinism: procs sleeping to the same
// instant wake in schedule order, serialized one at a time, each at the
// instant it asked for.
func TestSleepOrder(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	var order []int
	for i := 0; i < 4; i++ {
		n.Go(0, func(p *Proc) {
			if n.Sleep(p, 10*time.Millisecond) == nil && eng.Now() == 10*time.Millisecond {
				order = append(order, i)
			}
		})
	}
	eng.Run(50 * time.Millisecond)
	n.Shutdown()
	if len(order) != 4 {
		t.Fatalf("woke %d procs on time, want 4", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("wake order %v, want spawn order", order)
		}
	}
}

// TestBlockingOpsDoNotAllocate pins the steady-state cost of parking: a
// cached resume callback per proc, so a Sleep allocates nothing.
func TestBlockingOpsDoNotAllocate(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	allocs := -1.0
	n.Go(0, func(p *Proc) {
		n.Sleep(p, time.Millisecond) // grow the engine's event arena once
		allocs = testing.AllocsPerRun(200, func() { n.Sleep(p, time.Millisecond) })
	})
	eng.Run(time.Second)
	n.Shutdown()
	if allocs != 0 {
		t.Errorf("Sleep allocates %.1f objects per call, want 0", allocs)
	}
}
