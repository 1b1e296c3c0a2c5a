package repro

import (
	"fmt"
	"io"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/iperf"
	"mobbr/internal/obs"
	"mobbr/internal/stats"
	"mobbr/internal/units"
)

// The recovery experiment extends the paper's mobility discussion (§7.2,
// Appendix A.1): phones do not sit one meter from an access point — links
// black out in elevators and tunnels and hand over between LTE and WiFi.
// It measures how long each congestion control needs to regain its
// pre-fault goodput after the link returns, with the invariant checker
// armed throughout.

// RecoveryFault names the injected fault pattern.
type RecoveryFault string

// Recovery faults.
const (
	// FaultBlackout is a 2 s total outage on the LTE radio link.
	FaultBlackout RecoveryFault = "blackout"
	// FaultHandover is a hard LTE→WiFi vertical handover: a 200 ms dead
	// gap, then the link comes back ~33× faster with ~30× lower delay.
	FaultHandover RecoveryFault = "handover"
)

// Recovery timing constants (virtual time).
const (
	// RecoveryDuration is the per-run transfer time; the fault hits at
	// recoveryFaultStart, leaving several seconds to measure recovery.
	RecoveryDuration = 10 * time.Second
	// RecoveryWarmup excludes the initial ramp from the pre-fault
	// baseline.
	RecoveryWarmup = time.Second
	// RecoveryInterval is the iperf3-style reporting granularity the
	// recovery time is measured at.
	RecoveryInterval = 100 * time.Millisecond

	recoveryFaultStart = 3 * time.Second
	recoveryBlackout   = 2 * time.Second
	recoveryOutage     = 200 * time.Millisecond
)

// recoveryThreshold is the fraction of pre-fault goodput that counts as
// "recovered" (90%).
const recoveryThreshold = 0.9

// recoverySchedule builds the fault schedule for one pattern on the LTE
// radio hop (hop 0).
func recoverySchedule(f RecoveryFault) (faults.Schedule, time.Duration) {
	switch f {
	case FaultHandover:
		return faults.Schedule{Events: []faults.Event{
			faults.Handover{
				At:     recoveryFaultStart,
				Outage: recoveryOutage,
				Rate:   600 * units.Mbps,
				Delay:  800 * time.Microsecond,
			},
		}}, recoveryFaultStart + recoveryOutage
	default: // FaultBlackout
		return faults.Schedule{Events: []faults.Event{
			faults.Blackout{Start: recoveryFaultStart, Duration: recoveryBlackout},
		}}, recoveryFaultStart + recoveryBlackout
	}
}

// Recovery returns the fault-recovery experiment: BBR vs BBRv2 vs Cubic
// through a 2 s blackout and an LTE→WiFi handover, on the Low-End and
// Default CPU configurations, single connection over the LTE uplink.
func Recovery() Experiment {
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.Default} {
		for _, fault := range []RecoveryFault{FaultBlackout, FaultHandover} {
			for _, ccName := range []string{"bbr", "bbr2", "cubic"} {
				sched, end := recoverySchedule(fault)
				s := core.Spec{
					Device:   device.Pixel4,
					CPU:      cfg,
					CC:       ccName,
					Conns:    1,
					Network:  core.Cellular,
					Duration: RecoveryDuration,
					Warmup:   RecoveryWarmup,
					Interval: RecoveryInterval,
					Faults:   sched,
					Check:    true,
				}
				pts = append(pts, Point{
					Label:    fmt.Sprintf("%s %s %s", ccName, fault, cfg),
					Spec:     s,
					FaultEnd: end,
				})
			}
		}
	}
	return Experiment{
		ID:     "recovery",
		Title:  "Goodput recovery after blackout and LTE→WiFi handover (§7.2 extension)",
		Points: pts,
	}
}

// recoveryTime extracts (pre-fault goodput, recovery time, recovered) from
// one run's interval series.
func recoveryTime(ivals []iperf.Interval, warmup, faultStart, faultEnd, dur time.Duration) (pre float64, rec time.Duration, ok bool) {
	var preSum float64
	var preN int
	for _, iv := range ivals {
		if iv.Start >= warmup && iv.End <= faultStart {
			preSum += float64(iv.Goodput)
			preN++
		}
	}
	if preN == 0 {
		return 0, dur - faultEnd, false
	}
	pre = preSum / float64(preN)
	target := recoveryThreshold * pre
	for _, iv := range ivals {
		if iv.Start >= faultEnd && float64(iv.Goodput) >= target {
			return pre, iv.End - faultEnd, true
		}
	}
	return pre, dur - faultEnd, false
}

// foldRecovery adds the recovery columns to m from the per-seed interval
// series: pre-fault goodput (replacing the whole-run mean, which the fault
// itself drags down) and the time from faultEnd back to 90% of it.
func foldRecovery(m *obs.Metrics, faultEnd time.Duration, agg *core.Aggregate) {
	var pre, recMs, spurious stats.Online
	for _, run := range agg.Runs {
		preG, rec, ok := recoveryTime(run.Report.Intervals,
			agg.Spec.Warmup, recoveryFaultStart, faultEnd, agg.Spec.Duration)
		pre.Add(preG)
		recMs.Add(float64(rec) / 1e6)
		if ok {
			m.Recovered++
		}
		spurious.Add(float64(run.Report.SpuriousRTOs))
	}
	m.GoodputMbps = pre.Mean() / 1e6
	m.GoodputCI = pre.CI95() / 1e6
	m.RecoveryMs = recMs.Mean()
	m.RecoveryCI = recMs.CI95()
	m.SpuriousRTOs = spurious.Mean()
}

// PrintRecovery writes the rows as an aligned table.
func PrintRecovery(w io.Writer, e Experiment, rows []Row) {
	fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "%-28s %10s %12s %7s %10s %9s %9s\n",
		"point", "pre Mbps", "recovery ms", "±CI", "recovered", "spurious", "retx")
	for _, r := range rows {
		if r.Failure != nil {
			printFailed(w, 28, r)
			continue
		}
		fmt.Fprintf(w, "%-28s %10.1f %12.0f %7.0f %7d/%-2d %9.1f %9.0f\n",
			r.Point.Label, r.GoodputMbps, r.RecoveryMs, r.RecoveryCI,
			r.Recovered, r.Seeds, r.SpuriousRTOs, r.Retransmits)
	}
	fmt.Fprintln(w)
}
