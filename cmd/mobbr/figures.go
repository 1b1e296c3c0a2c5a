package main

import (
	"fmt"
	"io"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/mobility"
	"mobbr/internal/repro"
)

// figure draws some of a registry experiment's points as grouped bar
// charts: one chart per distinct title, one bar per point.
type figure struct {
	heading string
	exp     repro.Experiment
	keep    func(core.Spec) bool
	max     float64 // chart scale in Mbps (0 = the largest bar)
	title   func(core.Spec) string
	bar     func(repro.Point) bar
}

// figures runs the paper's headline figures — 2a, 4 and 8, their cells
// taken from the experiment registry — through the grid runner, draws them
// as terminal bar charts and adds a trace replay's goodput over time.
func figures(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("figures", "[flags]", "Draws Figures 2a, 4 and 8 and a commute trace replay as terminal charts.", stderr)
	sh := sharedFlags(fs, 3*time.Second, 1, "dur j trace-source")
	if status, ok := parse(fs, args, 0); !ok {
		return status
	}
	stop, status, ok := sh.start(sh.jobs, stderr)
	if !ok {
		return status
	}
	defer stop()
	lowEnd := func(s core.Spec) bool { return s.CPU == device.LowEnd }
	figs := []figure{
		{"Figure 2a — Pixel 4 Low-End, Ethernet", repro.Figure2(), lowEnd, 400,
			func(s core.Spec) string { return s.CC },
			func(p repro.Point) bar {
				b := bar{label: fmt.Sprintf("%2d conns", p.Spec.Conns)}
				if p.PaperMbps > 0 {
					b.note = fmt.Sprintf("paper: %.0f", p.PaperMbps)
				}
				return b
			}},
		{"Figure 4 — BBR pacing on/off, 20 conns", repro.Figure4(), func(core.Spec) bool { return true }, 0,
			func(core.Spec) string { return "goodput" },
			func(p repro.Point) bar {
				if p.Spec.PacingOverride != nil {
					return bar{label: fmt.Sprintf("%v unpaced", p.Spec.CPU)}
				}
				return bar{label: fmt.Sprintf("%v paced", p.Spec.CPU)}
			}},
		{"Figure 8 — pacing-stride sweep, 20 conns", repro.Figure8(),
			func(s core.Spec) bool { return s.CPU == device.LowEnd || s.CPU == device.Default }, 700,
			func(s core.Spec) string { return s.CPU.String() },
			func(p repro.Point) bar { return bar{label: fmt.Sprintf("%3.0fx", p.Spec.Stride)} }},
	}
	// One grid of every kept cell, so the worker pool sees all of them.
	all := repro.Experiment{ID: "figures", Title: "Figures 2a, 4 and 8"}
	for i := range figs {
		var kept []repro.Point
		for _, p := range figs[i].exp.Points {
			if figs[i].keep(p.Spec) {
				kept = append(kept, p)
			}
		}
		figs[i].exp.Points = kept
		all.Points = append(all.Points, kept...)
	}
	rows, err := repro.RunExperimentResilient(all, repro.RunOpts{Dur: sh.dur, Seeds: 1, Workers: sh.jobs})
	if err != nil {
		return failf(stderr, "%v", err)
	}
	if repro.WriteFailures(stderr, all, rows) > 0 {
		return 1
	}
	for _, f := range figs {
		var charts []chart
		for _, r := range rows[:len(f.exp.Points)] {
			if t := f.title(r.Point.Spec); len(charts) == 0 || charts[len(charts)-1].title != t {
				charts = append(charts, chart{title: t})
			}
			b := f.bar(r.Point)
			b.value = r.GoodputMbps
			charts[len(charts)-1].bars = append(charts[len(charts)-1].bars, b)
		}
		rows = rows[len(f.exp.Points):]
		fmt.Fprintf(stdout, "═══ %s ═══\n", f.heading)
		if err := writeGrouped(stdout, "Mbps", f.max, charts...); err != nil {
			return failf(stderr, "%v", err)
		}
	}
	if err := traceFigure(stdout, sh); err != nil {
		return failf(stderr, "%v", err)
	}
	return 0
}

// traceFigure replays a commute trace (dataset file or synthesized preset)
// with BBR on the Low-End configuration and draws goodput over time, with
// the trace's outage and degraded segments shaded.
func traceFigure(w io.Writer, sh *shared) error {
	tr, err := repro.LoadTrace(sh.trFile, sh.trPreset, 12*time.Second, sh.trTick, sh.trSeed)
	if err != nil {
		return err
	}
	e, err := repro.NewTraceExperiment(tr)
	if err != nil {
		return err
	}
	spec := e.Points[0].Spec // bbr Low-End
	spec.Seed = 1
	spec.Interval = 500 * time.Millisecond
	res, err := core.Run(spec)
	if err != nil {
		return err
	}
	segAt := func(at time.Duration) *mobility.Segment {
		for i := range e.Compiled.Segments {
			if s := &e.Compiled.Segments[i]; at >= s.Start && at < s.End {
				return s
			}
		}
		return nil
	}
	fmt.Fprintf(w, "═══ Trace replay — %s, bbr Low-End (▒ = outage/degraded) ═══\n", e.Compiled.Trace.Name)
	tl := chart{title: "goodput over time", unit: "Mbps", width: 40}
	var lastSeg *mobility.Segment
	for _, iv := range res.Report.Intervals {
		seg := segAt(iv.Start + (iv.End-iv.Start)/2)
		b := bar{label: fmt.Sprintf("%5.1fs", iv.Start.Seconds()), value: iv.Goodput.Mbit()}
		if seg != nil && seg.Kind != mobility.SegNominal {
			b.shaded = true
			if seg != lastSeg {
				b.note = "◀ " + seg.Kind.String()
			}
		}
		lastSeg = seg
		tl.bars = append(tl.bars, b)
	}
	return tl.write(w)
}
