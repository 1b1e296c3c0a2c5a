package repro

import (
	"fmt"
	"io"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/obs"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// Row is the measured outcome of one experiment point: its grid Point, the
// point's archive record, and what only a fresh run holds. The record is
// built once, when the point finishes; the checkpoint journal writes it
// and a resume reads it back, so a resumed row prints and archives as the
// original did.
type Row struct {
	Point Point
	// PointRecord carries the measured columns (obs.Metrics: seed means,
	// 95% CI half-widths and pooled percentiles; recovery points report
	// pre-fault goodput in GoodputMbps/GoodputCI), the spec, the event
	// total, a trace point's segments, the digest and any Failure.
	obs.PointRecord
	// Seeds is how many seeds the point ran (the denominator of
	// Recovered): the aggregate's run count, or for a resumed row the
	// seed count the journal header binds; 0 on a failed row.
	Seeds int
	// Sample is the last seed's full result, carrying the telemetry bus,
	// profile and engine stats when they were enabled. In-memory only: a
	// journal-resumed row has none.
	Sample *core.Result
}

// Observer receives grid-run lifecycle callbacks (obs.Progress implements
// it). Observers live on the wall-clock side only: the runner never lets
// one influence point order, specs, or results, so enabling progress cannot
// perturb a deterministic run. Methods must be safe for concurrent workers.
type Observer interface {
	// BeginExperiment announces the grid: experiment id and point count.
	BeginExperiment(id string, total int)
	// PointStart fires when a worker picks up a point.
	PointStart(worker, index int, label string)
	// PointDone fires when a point finishes (events = simulator events
	// executed across its seeds; failed = the point carries a contained
	// failure). Resumed points report Done without a prior Start.
	PointDone(worker, index int, events uint64, failed bool)
}

// pointSpec is the one place a grid point's spec is finalized for a run, so
// the runner, a journal resume and the archive agree exactly. A point that
// pins its own Duration (recovery's fault timeline, a trace's length) keeps
// it and its warm-up; every other point takes the grid's.
func pointSpec(p Point, dur time.Duration, tel telemetry.Config) core.Spec {
	spec := p.Spec
	if spec.Duration == 0 {
		spec.Duration = dur
		spec.Warmup = dur / 5
	}
	spec.Telemetry = tel
	return spec
}

// rowFromAggregate folds one point's multi-seed aggregate into a Row, the
// last seed's histogram digest and queue high-water mark included. What
// the point carries selects the extra metrics: a fault end time adds the
// recovery columns, a compiled trace the per-segment breakdown.
func rowFromAggregate(p Point, agg *core.Aggregate) Row {
	var jain float64
	var events uint64
	for _, run := range agg.Runs {
		jain += run.Report.Fairness.Jain
		events += run.Processed
	}
	jain /= float64(len(agg.Runs))
	sample := agg.Runs[len(agg.Runs)-1]
	var paceShare float64
	if sample.Profile != nil {
		paceShare = sample.Profile.Share("net", "pacing_timer")
	}
	row := Row{Point: p, Seeds: len(agg.Runs), Sample: sample, PointRecord: obs.PointRecord{
		Metrics: obs.Metrics{
			GoodputMbps:  agg.Goodput.Mean() / 1e6,
			GoodputCI:    agg.Goodput.CI95() / 1e6,
			RTTms:        agg.AvgRTT.Mean() / 1e6,
			MinRTTms:     agg.MinRTT.Mean() / 1e6,
			Retransmits:  agg.Retransmits.Mean(),
			SKBKbits:     units.DataSize(agg.AvgSKB.Mean()).Kilobits(),
			IdleMs:       agg.AvgIdle.Mean() / 1e6,
			ExpectedMbps: agg.ExpectedTx.Mean() / 1e6,
			MaxBufKB:     agg.MaxBufOcc.Mean() / 1024,
			CPUUtil:      agg.CPUUtil.Mean(),
			Jain:         jain,
			PacingShare:  paceShare,
			Profiled:     sample.Profile != nil,
		},
		Events: events,
	}}
	if sample.Report.Metrics != nil {
		row.Digest, row.DigestSkipped = obs.DigestSnapshot(sample.Report.Metrics)
	}
	if sample.Engine != nil {
		row.MaxPending = sample.Engine.MaxPending
	}
	if agg.App != nil {
		row.AppKind = agg.App.Kind
		row.Requests = agg.App.Completed
		row.LatP50ms = agg.App.LatP(50)
		row.LatP90ms = agg.App.LatP(90)
		row.LatP99ms = agg.App.LatP(99)
		row.RebufferPct = agg.App.RebufferRatio * 100
	}
	if agg.Flows != nil {
		row.FlowsStarted = agg.Flows.Started
		row.FlowsCompleted = agg.Flows.Completed
		row.FlowsPeakLive = agg.Flows.PeakLive
		row.FCTP50ms = agg.Flows.FCTP(50)
		row.FCTP99ms = agg.Flows.FCTP(99)
		row.FastPathShare = agg.Flows.FlowTable.FastShare()
	}
	if p.FaultEnd > 0 {
		foldRecovery(&row.Metrics, p.FaultEnd, agg)
	}
	if agg.Spec.Mobility != nil {
		row.Segments = foldSegments(agg.Runs, agg.Spec.Mobility.Segments)
	}
	return row
}

// Print writes rows in the experiment's table format: the trace and recovery
// grids have their own (PrintTrace, PrintRecovery); every other grid gets
// the paper-style aligned table, including the paper's values where the
// text states them. A pace% column (pacing-timer share of netstack cycles)
// appears when any row carries a cycle profile; application columns
// (requests, latency percentiles, rebuffer share) appear when any row ran
// an app workload; flow-churn columns (flows started/done, peak
// concurrency, FCT percentiles, fast-path share) when any row ran the flows
// workload.
func Print(w io.Writer, e Experiment, rows []Row) {
	switch {
	case e.Compiled != nil:
		PrintTrace(w, e, rows)
		return
	case len(e.Points) > 0 && e.Points[0].FaultEnd > 0:
		PrintRecovery(w, e, rows)
		return
	}
	profiled := false
	hasApp := false
	hasFlows := false
	for _, r := range rows {
		if r.Profiled {
			profiled = true
		}
		if r.AppKind != "" {
			hasApp = true
		}
		if r.FlowsStarted > 0 {
			hasFlows = true
		}
	}
	fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "%-36s %9s %7s %8s %8s %9s %8s %8s %9s %6s",
		"point", "Mbps", "±CI", "paper", "rtt ms", "retx", "skb Kb", "idle ms", "expect", "jain")
	if profiled {
		fmt.Fprintf(w, " %6s", "pace%")
	}
	if hasApp {
		fmt.Fprintf(w, " %7s %7s %8s %8s %8s %6s",
			"app", "reqs", "p50 ms", "p90 ms", "p99 ms", "rbuf%")
	}
	if hasFlows {
		fmt.Fprintf(w, " %8s %8s %8s %9s %9s %6s",
			"flows", "done", "peak", "fct50 ms", "fct99 ms", "fast%")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		if r.Failure != nil {
			printFailed(w, 36, r)
			continue
		}
		paper := "-"
		if r.Point.PaperMbps > 0 {
			paper = fmt.Sprintf("%.0f", r.Point.PaperMbps)
		}
		fmt.Fprintf(w, "%-36s %9.1f %7.1f %8s %8.2f %9.0f %8.1f %8.2f %9.0f %6.3f",
			r.Point.Label, r.GoodputMbps, r.GoodputCI, paper,
			r.RTTms, r.Retransmits, r.SKBKbits, r.IdleMs, r.ExpectedMbps, r.Jain)
		if profiled {
			fmt.Fprintf(w, " %6.1f", r.PacingShare*100)
		}
		if hasApp {
			if r.AppKind != "" {
				fmt.Fprintf(w, " %7s %7d %8.1f %8.1f %8.1f %6.2f",
					r.AppKind, r.Requests, r.LatP50ms, r.LatP90ms, r.LatP99ms, r.RebufferPct)
			} else {
				fmt.Fprintf(w, " %7s %7s %8s %8s %8s %6s", "-", "-", "-", "-", "-", "-")
			}
		}
		if hasFlows {
			if r.FlowsStarted > 0 {
				fmt.Fprintf(w, " %8d %8d %8d %9.1f %9.1f %6.1f",
					r.FlowsStarted, r.FlowsCompleted, r.FlowsPeakLive,
					r.FCTP50ms, r.FCTP99ms, r.FastPathShare*100)
			} else {
				fmt.Fprintf(w, " %8s %8s %8s %9s %9s %6s", "-", "-", "-", "-", "-", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// printFailed writes a failed point's table line, label padded to width.
// Failed points render deterministically (class + rule, no stacks or
// timings), so a resumed grid prints byte-identically.
func printFailed(w io.Writer, width int, r Row) {
	fmt.Fprintf(w, "%-*s FAILED %s", width, r.Point.Label, r.Failure.Class)
	if r.Failure.Rule != "" {
		fmt.Fprintf(w, " (%s)", r.Failure.Rule)
	}
	if r.Failure.Attempts > 1 {
		fmt.Fprintf(w, " after %d attempts", r.Failure.Attempts)
	}
	fmt.Fprintln(w)
}
