package cpumodel

import (
	"time"

	"mobbr/internal/sim"
)

// OperatingPoint is one DVFS step: a clock frequency on a particular core
// type with that core's IPC factor. Effective speed = FreqHz × IPC.
type OperatingPoint struct {
	FreqHz float64
	// IPC is the instructions-per-cycle factor relative to the reference
	// core the Costs table was calibrated on.
	IPC float64
	// Big marks the point as belonging to a BIG core in a big.LITTLE
	// topology.
	Big bool
}

// Speed returns the effective speed in reference cycles per second.
func (p OperatingPoint) Speed() float64 { return p.FreqHz * p.IPC }

// Governor controls the operating point of a CPU cluster over time,
// mirroring the paper's Table 1 configurations: the userspace governor pins
// a frequency; the default governor scales dynamically with load. Linux
// cpufreq policies are per cluster, so one governor drives every core in
// the cluster at the same frequency, reacting to the busiest core.
type Governor interface {
	// Start installs the governor on the cluster's CPUs and begins any
	// periodic frequency re-evaluation.
	Start(eng *sim.Engine, cpus ...*CPU)
	// Name identifies the governor for reporting.
	Name() string
}

// FixedGovernor pins a single operating point for the whole run, like the
// Linux "userspace" governor the paper uses for Low/Mid/High-End configs.
type FixedGovernor struct {
	Point OperatingPoint
}

// Name implements Governor.
func (g FixedGovernor) Name() string { return "userspace" }

// Start implements Governor.
func (g FixedGovernor) Start(_ *sim.Engine, cpus ...*CPU) {
	for _, cpu := range cpus {
		cpu.SetSpeed(g.Point.Speed())
	}
}

// SchedutilGovernor approximates the schedutil/EAS behaviour of the stock
// Default configuration: every Interval it measures utilization and picks
// the lowest operating point whose capacity covers demand/TargetUtil, with
// one-step-down hysteresis so the frequency does not thrash. The netstack's
// softirq work stays within the provided Points pool (on Pixels under EAS
// that is the LITTLE cluster unless the load is extreme).
type SchedutilGovernor struct {
	// Points must be sorted by ascending Speed().
	Points []OperatingPoint
	// Interval between evaluations; 16ms if zero (roughly the kernel's
	// rate limit + PELT reaction time).
	Interval time.Duration
	// TargetUtil is the utilization the governor aims to stay below;
	// 0.80 if zero.
	TargetUtil float64

	cpus   []*CPU
	eng    *sim.Engine
	cur    int
	tickFn func() // bound once in Start: re-arming allocates nothing
}

// Name implements Governor.
func (g *SchedutilGovernor) Name() string { return "schedutil" }

// Start implements Governor.
func (g *SchedutilGovernor) Start(eng *sim.Engine, cpus ...*CPU) {
	if len(g.Points) == 0 {
		panic("cpumodel: SchedutilGovernor with no operating points")
	}
	if len(cpus) == 0 {
		panic("cpumodel: SchedutilGovernor needs at least one CPU")
	}
	if g.Interval <= 0 {
		g.Interval = 16 * time.Millisecond
	}
	if g.TargetUtil <= 0 {
		g.TargetUtil = 0.80
	}
	g.eng, g.cpus = eng, cpus
	// Boot at the lowest point, as an idle phone would sit before the
	// transfer starts.
	g.cur = 0
	for _, cpu := range cpus {
		cpu.SetSpeed(g.Points[0].Speed())
		cpu.WindowUtilization() // reset the window
	}
	g.tickFn = g.tick
	eng.Schedule(g.Interval, g.tickFn)
}

func (g *SchedutilGovernor) tick() {
	// The cluster follows its busiest core.
	util := 0.0
	for _, cpu := range g.cpus {
		if u := cpu.WindowUtilization(); u > util {
			util = u
		}
	}
	demand := util * g.Points[g.cur].Speed() / g.TargetUtil
	// Pick the lowest point that covers demand.
	next := len(g.Points) - 1
	for i, p := range g.Points {
		if p.Speed() >= demand {
			next = i
			break
		}
	}
	// Hysteresis: step down one level at a time so a transient dip does
	// not crater the frequency mid-transfer.
	if next < g.cur-1 {
		next = g.cur - 1
	}
	if next != g.cur {
		g.cur = next
		for _, cpu := range g.cpus {
			cpu.SetSpeed(g.Points[g.cur].Speed())
		}
	}
	g.eng.Schedule(g.Interval, g.tickFn)
}
