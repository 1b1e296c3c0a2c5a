package cpumodel

import (
	"reflect"
	"testing"
	"time"

	"mobbr/internal/sim"
)

func TestSubmitSerializes(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e6) // 1e6 cycles/s → 1 cycle = 1µs
	var done []time.Duration
	cpu.Submit(OpSegXmit, 1000, func() { done = append(done, eng.Now()) })
	cpu.Submit(OpSegXmit, 2000, func() { done = append(done, eng.Now()) })
	eng.Run(time.Second)
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	if done[0] != time.Millisecond {
		t.Errorf("first job done at %v, want 1ms", done[0])
	}
	if done[1] != 3*time.Millisecond {
		t.Errorf("second job done at %v, want 3ms (serialized)", done[1])
	}
}

// TestCompletionOrderIsSubmissionOrder pins SubmitP's FCFS contract through
// both entry points, with zero-cost jobs that complete at the same instant as
// their predecessor.
func TestCompletionOrderIsSubmissionOrder(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e9)
	var order []int
	note := func(v any) { order = append(order, v.(int)) }
	for i, cycles := range []float64{500, 0, 0, 200, 0, 1000, 0} {
		if i%2 == 0 {
			cpu.SubmitP(OpAckProcess, cycles, note, i)
		} else {
			i := i
			cpu.Submit(OpAckProcess, cycles, func() { note(i) })
		}
	}
	eng.Run(time.Second)
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order %v, want submission order %v", order, want)
	}
}

func TestSubmitAfterIdleStartsImmediately(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e6)
	cpu.Submit(OpSegXmit, 1000, nil)
	var at time.Duration
	eng.Schedule(10*time.Millisecond, func() {
		cpu.Submit(OpSegXmit, 500, func() { at = eng.Now() })
	})
	eng.Run(time.Second)
	if want := 10*time.Millisecond + 500*time.Microsecond; at != want {
		t.Errorf("job done at %v, want %v", at, want)
	}
}

func TestQueueDelay(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e6)
	if done := cpu.Submit(OpSegXmit, 5000, nil); done != 5*time.Millisecond {
		t.Fatalf("job on an idle CPU done at %v, want 5ms", done)
	}
	// A job submitted now waits the 5 ms the first one holds the core.
	if done := cpu.Submit(OpSegXmit, 1000, nil); done != 6*time.Millisecond {
		t.Fatalf("queued job done at %v, want 6ms", done)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e6)
	cpu.Submit(OpSegXmit, 5000, nil) // 5ms of work
	eng.Run(10 * time.Millisecond)
	util := cpu.WindowUtilization()
	if util < 0.49 || util > 0.51 {
		t.Errorf("window utilization = %v, want ~0.5", util)
	}
	// Window reset: no new work → zero.
	eng.Run(20 * time.Millisecond)
	if got := cpu.WindowUtilization(); got != 0 {
		t.Errorf("second window utilization = %v, want 0", got)
	}
	if tu := cpu.TotalUtilization(); tu < 0.24 || tu > 0.26 {
		t.Errorf("total utilization = %v, want ~0.25", tu)
	}
}

func TestUtilizationNeverExceedsOne(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e6)
	// Queue 100ms of work into a 10ms window.
	cpu.Submit(OpSegXmit, 100000, nil)
	eng.Run(10 * time.Millisecond)
	if got := cpu.WindowUtilization(); got > 1 {
		t.Errorf("window utilization = %v, must be <= 1", got)
	}
	if got := cpu.TotalUtilization(); got > 1 {
		t.Errorf("total utilization = %v, must be <= 1", got)
	}
}

func TestOpAccounting(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e9)
	cpu.Submit(OpPacingTimer, cpu.Costs().PacingTimer, nil)
	cpu.Submit(OpPacingTimer, cpu.Costs().PacingTimer, nil)
	cpu.Submit(OpAckProcess, 123, nil)
	if got := cpu.OpCycles(OpPacingTimer); got != 2*DefaultCosts().PacingTimer {
		t.Errorf("OpCycles(pacing_timer) = %v", got)
	}
	if got := cpu.OpCycles(OpAckProcess); got != 123 {
		t.Errorf("OpCycles(ack_process) = %v, want 123", got)
	}
	if got := cpu.OpCycles(Op(99)); got != 0 {
		t.Errorf("OpCycles(99) = %v for an out-of-range op", got)
	}
}

func TestSetSpeedAffectsFutureJobs(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e6)
	var first, second time.Duration
	cpu.Submit(OpSegXmit, 1000, func() { first = eng.Now() })
	eng.Run(5 * time.Millisecond)
	cpu.SetSpeed(2e6)
	cpu.Submit(OpSegXmit, 1000, func() { second = eng.Now() })
	eng.Run(time.Second)
	if first != time.Millisecond {
		t.Errorf("first done at %v, want 1ms", first)
	}
	if want := 5*time.Millisecond + 500*time.Microsecond; second != want {
		t.Errorf("second done at %v, want %v (doubled speed)", second, want)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	eng := sim.New(1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero speed", func() { NewCPU(eng, DefaultCosts(), 0) })
	cpu := NewCPU(eng, DefaultCosts(), 1e6)
	mustPanic("negative cycles", func() { cpu.Submit(OpSegXmit, -1, nil) })
	mustPanic("SetSpeed zero", func() { cpu.SetSpeed(0) })
}

func TestFixedGovernor(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1)
	g := FixedGovernor{Point: OperatingPoint{FreqHz: 576e6, IPC: 0.55}}
	g.Start(eng, cpu)
	if want := 576e6 * 0.55; cpu.speed != want {
		t.Errorf("speed = %v, want %v", cpu.speed, want)
	}
	if g.Name() != "userspace" {
		t.Errorf("name = %q", g.Name())
	}
}

func TestSchedutilRampsUpUnderLoad(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1)
	points := []OperatingPoint{
		{FreqHz: 300e6, IPC: 1},
		{FreqHz: 600e6, IPC: 1},
		{FreqHz: 1200e6, IPC: 1},
	}
	g := &SchedutilGovernor{Points: points}
	g.Start(eng, cpu)
	if cpu.speed != 300e6 {
		t.Fatalf("boot speed = %v, want lowest point", cpu.speed)
	}
	// Saturate: a generator that always keeps the CPU busy.
	var load func()
	load = func() {
		cpu.Submit(OpSegXmit, 300e6*0.002, func() {}) // 2ms of work at lowest point
		eng.Schedule(time.Millisecond, load)
	}
	eng.Schedule(0, load)
	eng.Run(500 * time.Millisecond)
	if cpu.speed != 1200e6 {
		t.Errorf("speed under saturation = %v, want max 1200e6", cpu.speed)
	}
}

func TestSchedutilStepsDownWithHysteresis(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1)
	points := []OperatingPoint{
		{FreqHz: 300e6, IPC: 1},
		{FreqHz: 600e6, IPC: 1},
		{FreqHz: 1200e6, IPC: 1},
	}
	g := &SchedutilGovernor{Points: points, Interval: 10 * time.Millisecond}
	g.Start(eng, cpu)
	// Saturate for a while to reach max…
	stop := 200 * time.Millisecond
	var load func()
	load = func() {
		if eng.Now() < stop {
			cpu.Submit(OpSegXmit, cpu.speed*0.002, func() {})
			eng.Schedule(time.Millisecond, load)
		}
	}
	eng.Schedule(0, load)
	eng.Run(stop)
	if cpu.speed != 1200e6 {
		t.Fatalf("did not reach max under load: %v", cpu.speed)
	}
	// …then go idle: one evaluation later it must have stepped down at
	// most one level.
	eng.Run(stop + 12*time.Millisecond)
	if cpu.speed < 600e6 {
		t.Errorf("dropped more than one step in one interval: %v", cpu.speed)
	}
	// Long idle → returns to minimum.
	eng.Run(stop + 500*time.Millisecond)
	if cpu.speed != 300e6 {
		t.Errorf("idle steady-state speed = %v, want 300e6", cpu.speed)
	}
}

func TestOperatingPointSpeed(t *testing.T) {
	p := OperatingPoint{FreqHz: 2.8e9, IPC: 1.15, Big: true}
	if got, want := p.Speed(), 2.8e9*1.15; got < want*0.999999 || got > want*1.000001 {
		t.Errorf("Speed() = %v, want %v", got, want)
	}
}

func TestOpString(t *testing.T) {
	if OpPacingTimer.String() != "pacing_timer" {
		t.Errorf("OpPacingTimer.String() = %q", OpPacingTimer.String())
	}
	if Op(99).String() != "unknown" {
		t.Errorf("out-of-range op should be unknown")
	}
}

func TestBreakdownSharesSumToOne(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e9)
	if len(cpu.Breakdown()) != 0 {
		t.Fatal("breakdown should be empty before any work")
	}
	cpu.Submit(OpPacingTimer, cpu.Costs().PacingTimer, nil)
	cpu.Submit(OpAckProcess, cpu.Costs().AckProcess, nil)
	cpu.Submit(OpSegXmit, 1000, nil)
	bd := cpu.Breakdown()
	var sum float64
	for _, f := range bd {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown sums to %v", sum)
	}
	c := DefaultCosts()
	wantTimer := c.PacingTimer / (c.PacingTimer + c.AckProcess + 1000)
	if got := bd["pacing_timer"]; got < wantTimer*0.99 || got > wantTimer*1.01 {
		t.Errorf("pacing_timer share = %v, want %v", got, wantTimer)
	}
}

func TestPressureScalesServiceTime(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e6)
	cpu.SetPressure(2)
	var done time.Duration
	cpu.Submit(OpSegXmit, 1000, func() { done = eng.Now() })
	eng.Run(time.Second)
	if done != 2*time.Millisecond {
		t.Errorf("job with pressure 2 done at %v, want 2ms", done)
	}
	cpu.SetPressure(0.5) // clamps to 1
	if cpu.pressure != 1 {
		t.Errorf("pressure clamped to %v, want 1", cpu.pressure)
	}
}
