package cpumodel

import (
	"fmt"
	"time"

	"mobbr/internal/sim"
)

// CPU is a serial work-conserving FCFS server standing in for the core(s)
// the kernel's network stack runs on. Jobs are submitted with a cycle cost;
// each runs to completion before the next starts, so under load completion
// latency grows — exactly the "timer expiration callbacks continually
// reschedule connections to be processed" effect from the paper's §6.1.
type CPU struct {
	eng   *sim.Engine
	costs Costs

	// speed is the current effective rate in reference cycles/second
	// (frequency × IPC factor), set by the governor.
	speed float64

	// pressure is a multiplier ≥ 1 applied to every job's cycle cost,
	// modelling cache/TLB working-set growth as the number of active
	// sockets rises (more socket structures, scoreboards and timers
	// competing for a small LITTLE-core cache).
	pressure float64

	busyUntil time.Duration

	// Utilization accounting for the governor and for reporting.
	windowStart time.Duration
	windowBusy  time.Duration
	totalBusy   time.Duration

	// Per-op cycle totals behind Breakdown.
	opCycles [numOps]float64

	// observer, when set, sees every charge as it happens (the telemetry
	// profiler attributes it to the current run phase). nil costs the hot
	// path only this nil-check.
	observer func(op Op, cycles float64)
	// speedListener, when set, is notified on every effective-speed change
	// (governor frequency decisions).
	speedListener func(old, new float64)
}

// NewCPU returns a CPU on eng running at the given effective speed
// (reference cycles per second).
func NewCPU(eng *sim.Engine, costs Costs, speed float64) *CPU {
	if speed <= 0 {
		panic(fmt.Sprintf("cpumodel: non-positive CPU speed %v", speed))
	}
	return &CPU{eng: eng, costs: costs, speed: speed, pressure: 1}
}

// SetPressure sets the cache-pressure cost multiplier (clamped to >= 1).
// The iperf harness sets it to 1 + 0.05·ln(connections).
func (c *CPU) SetPressure(f float64) {
	if f < 1 {
		f = 1
	}
	c.pressure = f
}

// Costs returns the CPU's cost table.
func (c *CPU) Costs() Costs { return c.costs }

// SetSpeed changes the effective speed. Jobs already queued keep the service
// time they were assigned at submission; only future jobs see the new speed.
// Governors call this.
func (c *CPU) SetSpeed(speed float64) {
	if speed <= 0 {
		panic(fmt.Sprintf("cpumodel: non-positive CPU speed %v", speed))
	}
	old := c.speed
	c.speed = speed
	if c.speedListener != nil && old != speed {
		c.speedListener(old, speed)
	}
}

// SetObserver installs a per-charge callback invoked from Submit with the
// op and its (pre-pressure) cycle cost. nil disables observation.
func (c *CPU) SetObserver(fn func(op Op, cycles float64)) { c.observer = fn }

// SetSpeedListener installs a callback invoked from SetSpeed whenever the
// effective speed actually changes. nil disables it.
func (c *CPU) SetSpeedListener(fn func(old, new float64)) { c.speedListener = fn }

// Submit charges cycles of work for op and runs fn when the work completes,
// after all previously queued work. It returns the virtual completion time.
// fn may be nil when the caller only wants the work accounted for.
func (c *CPU) Submit(op Op, cycles float64, fn func()) time.Duration {
	if cycles < 0 {
		panic("cpumodel: negative cycle cost")
	}
	now := c.eng.Now()
	start := c.busyUntil
	if start < now {
		start = now
	}
	service := time.Duration(cycles * c.pressure / c.speed * float64(time.Second))
	done := start + service
	c.busyUntil = done
	c.windowBusy += service
	c.totalBusy += service
	if op >= 0 && op < numOps {
		c.opCycles[op] += cycles
	}
	if c.observer != nil {
		c.observer(op, cycles)
	}
	if fn != nil {
		c.eng.ScheduleAt(done, fn)
	}
	return done
}

// SubmitP is the allocation-free form of Submit for the data path: fn is a
// long-lived callback shared across jobs and arg carries the per-job payload
// (see sim.Engine.ScheduleP). fn must be non-nil.
//
// Contract: the core is strictly first come, first served — completions run
// in submission order, jobs of cost 0 included (equal completion times fire
// in the order the engine scheduled them). Callers rely on it: tcp queues
// each ACK as it submits the ACK's job and lets the completion take the
// oldest, passing no per-job payload. A model with priorities or more than
// one queue has to hand each completion its own job back.
func (c *CPU) SubmitP(op Op, cycles float64, fn func(any), arg any) time.Duration {
	if cycles < 0 {
		panic("cpumodel: negative cycle cost")
	}
	now := c.eng.Now()
	start := c.busyUntil
	if start < now {
		start = now
	}
	service := time.Duration(cycles * c.pressure / c.speed * float64(time.Second))
	done := start + service
	c.busyUntil = done
	c.windowBusy += service
	c.totalBusy += service
	if op >= 0 && op < numOps {
		c.opCycles[op] += cycles
	}
	if c.observer != nil {
		c.observer(op, cycles)
	}
	c.eng.SchedulePAt(done, fn, arg)
	return done
}

// WindowUtilization returns the fraction of time since the last call that
// the CPU was busy, then resets the window. Governors poll this.
func (c *CPU) WindowUtilization() float64 {
	now := c.eng.Now()
	elapsed := now - c.windowStart
	if elapsed <= 0 {
		return 0
	}
	busy := c.windowBusy
	if busy > elapsed {
		// Work queued beyond 'now' counts against future windows.
		busy = elapsed
		c.windowBusy -= elapsed
	} else {
		c.windowBusy = 0
	}
	c.windowStart = now
	return float64(busy) / float64(elapsed)
}

// TotalUtilization returns the busy fraction since the start of the run.
func (c *CPU) TotalUtilization() float64 {
	now := c.eng.Now()
	if now <= 0 {
		return 0
	}
	busy := c.totalBusy
	if busy > now {
		busy = now
	}
	return float64(busy) / float64(now)
}

// OpCycles returns the total cycles charged to the given kind.
func (c *CPU) OpCycles(op Op) float64 {
	if op < 0 || op >= numOps {
		return 0
	}
	return c.opCycles[op]
}

// Breakdown returns each operation's share of the total cycles charged so
// far, keyed by the operation's name. Operations with no cycles are
// omitted.
func (c *CPU) Breakdown() map[string]float64 {
	out := make(map[string]float64)
	var total float64
	for _, cycles := range c.opCycles {
		total += cycles
	}
	if total == 0 {
		return out
	}
	for op, cycles := range c.opCycles {
		if cycles > 0 {
			out[Op(op).String()] = cycles / total
		}
	}
	return out
}
