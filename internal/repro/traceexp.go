package repro

import (
	"fmt"
	"io"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/iperf"
	"mobbr/internal/mobility"
	"mobbr/internal/obs"
)

// The trace experiment replays a real (or synthesized) cellular commute —
// an ingested bandwidth/RTT/loss trace compiled onto the LTE radio hop —
// and compares how BBR, BBRv2 and Cubic ride it out on the Low-End and
// Default CPU configurations. Where the recovery experiment injects one
// surgical fault, this one subjects the stacks to the full measured
// sequence: fades, handover outages, lossy stretches, and the recovery
// after each, reported per trace segment.

// TraceOtherRTT is the round-trip contributed by the non-radio part of the
// CellularLTE path: the core hop's 2×10 ms plus the 20 ms delayed-ACK
// timer. The compiler subtracts it from the trace RTT before halving the
// remainder into the radio hop's one-way delay.
const TraceOtherRTT = 30 * time.Millisecond

// TraceInterval is the iperf3-style reporting granularity; segment stats
// are assembled from these intervals.
const TraceInterval = 100 * time.Millisecond

// DefaultTraceDuration is the synthesized commute length when the CLI asks
// for a preset without an explicit duration.
const DefaultTraceDuration = 20 * time.Second

// LoadTrace resolves the CLI's trace source: a dataset file when path is
// non-empty, otherwise a commute synthesized from the named preset for dur
// on the given tick and seed (zero values take the defaults).
func LoadTrace(path, preset string, dur, tick time.Duration, seed int64) (mobility.Trace, error) {
	if path != "" {
		return mobility.Load(path)
	}
	p, err := mobility.ParsePreset(preset)
	if err != nil {
		return mobility.Trace{}, err
	}
	if dur <= 0 {
		dur = DefaultTraceDuration
	}
	if tick <= 0 {
		tick = mobility.DefaultTick
	}
	return mobility.Synthesize(p, dur, tick, seed)
}

// CompileTrace lowers a trace for replay on the CellularLTE path: irregular
// (dataset) traces are first resampled to the default tick, then compiled
// against the radio hop (hop 0) with the LTE path's non-radio RTT share.
func CompileTrace(tr mobility.Trace) (*mobility.Compiled, error) {
	if tr.Tick == 0 {
		rs, err := tr.Resample(mobility.DefaultTick)
		if err != nil {
			return nil, err
		}
		tr = rs
	}
	return mobility.Compile(tr, mobility.CompileOptions{
		Hop:      0,
		OtherRTT: TraceOtherRTT,
	})
}

// NewTraceExperiment compiles the trace and builds the point grid:
// {bbr, bbr2, cubic} × {Low-End, Default}, single connection over the LTE
// uplink, invariant checker armed, run for exactly the trace's duration.
func NewTraceExperiment(tr mobility.Trace) (Experiment, error) {
	c, err := CompileTrace(tr)
	if err != nil {
		return Experiment{}, err
	}
	dur := c.Trace.Duration()
	warmup := dur / 5
	if warmup > time.Second {
		warmup = time.Second
	}
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.Default} {
		for _, ccName := range []string{"bbr", "bbr2", "cubic"} {
			s := core.Spec{
				Device:   device.Pixel4,
				CPU:      cfg,
				CC:       ccName,
				Conns:    1,
				Network:  core.Cellular,
				Duration: dur,
				Warmup:   warmup,
				Interval: TraceInterval,
				Mobility: c,
				Check:    true,
			}
			pts = append(pts, Point{
				Label: fmt.Sprintf("%s %s", ccName, cfg),
				Spec:  s,
			})
		}
	}
	return Experiment{
		ID:       "trace",
		Title:    fmt.Sprintf("Trace replay %q: BBR vs BBRv2 vs Cubic over a measured commute", c.Trace.Name),
		Compiled: c,
		Points:   pts,
	}, nil
}

// segmentStats folds one run's interval series into per-segment sums.
// Intervals are assigned to the segment containing their midpoint.
func segmentStats(ivals []iperf.Interval, segs []mobility.Segment) []obs.Segment {
	rows := make([]obs.Segment, len(segs))
	counts := make([]int, len(segs))
	for _, iv := range ivals {
		mid := iv.Start + (iv.End-iv.Start)/2
		for i, s := range segs {
			if mid >= s.Start && mid < s.End {
				rows[i].GoodputMbps += iv.Goodput.Mbit()
				rows[i].RTTms += float64(iv.AvgRTT) / 1e6
				rows[i].Retransmits += float64(iv.Retransmits)
				counts[i]++
				break
			}
		}
	}
	for i := range rows {
		if counts[i] > 0 {
			rows[i].GoodputMbps /= float64(counts[i])
			rows[i].RTTms /= float64(counts[i])
		}
	}
	return rows
}

// foldSegments is the seed-mean of segmentStats over a point's runs.
func foldSegments(runs []*core.Result, segs []mobility.Segment) []obs.Segment {
	acc := make([]obs.Segment, len(segs))
	for _, run := range runs {
		for j, sr := range segmentStats(run.Report.Intervals, segs) {
			acc[j].GoodputMbps += sr.GoodputMbps
			acc[j].RTTms += sr.RTTms
			acc[j].Retransmits += sr.Retransmits
		}
	}
	for j := range acc {
		acc[j].GoodputMbps /= float64(len(runs))
		acc[j].RTTms /= float64(len(runs))
		acc[j].Retransmits /= float64(len(runs))
	}
	return acc
}

// PrintTrace writes the overall table, the per-segment breakdown, and the
// BBR-vs-Cubic deltas per CPU configuration.
func PrintTrace(w io.Writer, e Experiment, rows []Row) {
	st := e.Compiled.Trace.Stats()
	fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "trace: %v, mean %v peak %v, outage %.0f%%, mean RTT %v, %d fault events, %d segments\n",
		e.Compiled.Trace.Duration(), st.MeanRate, st.PeakRate, st.OutageFraction*100,
		st.MeanRTT.Round(time.Millisecond), len(e.Compiled.Schedule.Events), len(e.Compiled.Segments))
	fmt.Fprintf(w, "%-24s %9s %7s %8s %9s\n", "point", "Mbps", "±CI", "rtt ms", "retx")
	for _, r := range rows {
		if r.Failure != nil {
			printFailed(w, 24, r)
			continue
		}
		fmt.Fprintf(w, "%-24s %9.2f %7.2f %8.2f %9.0f\n",
			r.Point.Label, r.GoodputMbps, r.GoodputCI, r.RTTms, r.Retransmits)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "per-segment goodput (Mbps) / rtt (ms) / retx:\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s", r.Point.Label)
		for j, sr := range r.Segments {
			seg := e.Compiled.Segments[j]
			fmt.Fprintf(w, "  [%s %.0fs-%.0fs %.2f/%.1f/%.0f]",
				seg.Kind, seg.Start.Seconds(), seg.End.Seconds(),
				sr.GoodputMbps, sr.RTTms, sr.Retransmits)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	// Deltas against Cubic per CPU configuration (failed rows have none).
	byLabel := map[string]Row{}
	for _, r := range rows {
		if r.Failure == nil {
			byLabel[r.Point.Label] = r
		}
	}
	for _, cfg := range []device.Config{device.LowEnd, device.Default} {
		cubic, ok := byLabel[fmt.Sprintf("cubic %s", cfg)]
		if !ok || cubic.GoodputMbps == 0 {
			continue
		}
		for _, ccName := range []string{"bbr", "bbr2"} {
			r, ok := byLabel[fmt.Sprintf("%s %s", ccName, cfg)]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s vs cubic (%s): goodput %+.1f%%, rtt %+.1f%%, retx %+.0f\n",
				ccName, cfg,
				100*(r.GoodputMbps-cubic.GoodputMbps)/cubic.GoodputMbps,
				100*(r.RTTms-cubic.RTTms)/cubic.RTTms,
				r.Retransmits-cubic.Retransmits)
		}
	}
	fmt.Fprintln(w)
}
