// The scientific regression differ: align two run archives point by point,
// fold the aligned pairs into cells, and report per-cell deltas gated by
// noise-aware thresholds — a delta only counts when it clears both the
// combined 95% CI of the two means (internal/stats) and a relative floor.
// `mobbr diff` drives this: CI runs it against a baseline archive and
// fails the build when "goodput regressed on Low-End BBR" actually
// happened, not when seeds wobbled.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"

	"mobbr/internal/stats"
)

// DiffOpts tunes the gating.
type DiffOpts struct {
	// Rel is the relative-change floor (default 0.05 = 5%): a delta below
	// Rel×baseline is never significant, however tight the CIs.
	Rel float64
	// RetxAbs is the absolute retransmission floor (default 50): retx
	// deltas smaller than this never gate, so near-zero baselines don't
	// flag on a handful of extra losses.
	RetxAbs float64
	// All reports every aligned cell, not only significant ones.
	All bool
}

func (o DiffOpts) withDefaults() DiffOpts {
	if o.Rel <= 0 {
		o.Rel = 0.05
	}
	if o.RetxAbs <= 0 {
		o.RetxAbs = 50
	}
	return o
}

// Delta is one cell's before/after comparison.
type Delta struct {
	Exp    string
	Cell   Cell
	Points int
	// GoodA/GoodB are mean goodputs (Mbps) over the cell's aligned points.
	GoodA, GoodB float64
	// RetxA/RetxB are mean retransmissions.
	RetxA, RetxB float64
	// PaceA/PaceB are mean pacing-timer shares (profiled points only).
	PaceA, PaceB float64
	HasPace      bool
	// LatA/LatB are mean request-latency p99s in ms (app-workload points
	// only) — displayed for context, never gating: latency quantiles lack
	// per-point CIs, so thresholding them would gate on seed noise.
	LatA, LatB float64
	HasApp     bool
	// FCTA/FCTB are mean flow-completion-time p99s in ms (flow-churn
	// points only) — context, never gating, for the same reason.
	FCTA, FCTB float64
	HasFlows   bool
	// SpecDrift counts aligned points whose archived spec bytes differ
	// (e.g. a deliberately perturbed knob) — informational, not gating.
	SpecDrift int
	// FailedA/FailedB count contained-failure points per side; a point
	// failing on one side only is itself a regression signal.
	FailedA, FailedB int
	// GoodputRegressed / RetxRegressed / FailureRegressed name which gate
	// tripped; Improved marks a significant move the right way.
	GoodputRegressed bool
	RetxRegressed    bool
	FailureRegressed bool
	Improved         bool
}

// Significant reports whether the delta is worth printing at all.
func (d *Delta) Significant() bool {
	return d.GoodputRegressed || d.RetxRegressed || d.FailureRegressed || d.Improved
}

// Regressed reports whether the delta should fail a gate.
func (d *Delta) Regressed() bool {
	return d.GoodputRegressed || d.RetxRegressed || d.FailureRegressed
}

// DiffSummary totals one comparison.
type DiffSummary struct {
	Experiments int
	Cells       int
	Regressed   int
	Improved    int
	// Unmatched counts points present on one side only.
	Unmatched int
	// OneSidedDigests counts aligned, unfailed points whose histogram
	// digest one run lost although both recorded metrics; it gates.
	OneSidedDigests int
	// SkippedExps lists experiment ids present in only one archive.
	SkippedExps []string
}

// pair is one aligned grid point.
type pair struct {
	a, b *PointRecord
}

// Diff aligns archives a (baseline) and b (candidate) and returns per-cell
// deltas in deterministic order plus a summary. Alignment is by experiment
// id, then by point label within the experiment (labels are the stable
// identity; archived spec bytes are compared only to report drift, so a
// deliberately perturbed knob still aligns).
func Diff(a, b *Archive, opts DiffOpts) ([]Delta, DiffSummary, error) {
	opts = opts.withDefaults()
	var deltas []Delta
	var sum DiffSummary
	for _, exp := range a.Order {
		ra, rb := a.Runs[exp], b.Runs[exp]
		if rb == nil {
			sum.SkippedExps = append(sum.SkippedExps, exp)
			continue
		}
		sum.Experiments++
		pairs, unmatched := alignPoints(ra, rb)
		sum.Unmatched += unmatched
		for _, pr := range pairs {
			if ra.Manifest.Metrics && rb.Manifest.Metrics && pr.a.Failure == nil && pr.b.Failure == nil &&
				(len(pr.a.Digest) == 0) != (len(pr.b.Digest) == 0) {
				sum.OneSidedDigests++
			}
		}
		for _, d := range diffRun(exp, pairs, opts) {
			sum.Cells++
			if d.Regressed() {
				sum.Regressed++
			} else if d.Improved {
				sum.Improved++
			}
			if opts.All || d.Significant() {
				deltas = append(deltas, d)
			}
		}
	}
	for _, exp := range b.Order {
		if a.Runs[exp] == nil {
			sum.SkippedExps = append(sum.SkippedExps, exp)
		}
	}
	sort.Strings(sum.SkippedExps)
	return deltas, sum, nil
}

// alignPoints matches points by label (first occurrence wins on duplicate
// labels, with index order breaking ties deterministically).
func alignPoints(ra, rb *Run) ([]pair, int) {
	byLabel := map[string][]*PointRecord{}
	for i := range rb.Points {
		p := &rb.Points[i]
		byLabel[p.Label] = append(byLabel[p.Label], p)
	}
	var pairs []pair
	unmatched := 0
	for i := range ra.Points {
		p := &ra.Points[i]
		cands := byLabel[p.Label]
		if len(cands) == 0 {
			unmatched++
			continue
		}
		pairs = append(pairs, pair{a: p, b: cands[0]})
		byLabel[p.Label] = cands[1:]
	}
	for _, rest := range byLabel {
		unmatched += len(rest)
	}
	return pairs, unmatched
}

// diffRun folds one experiment's aligned pairs into per-cell deltas.
func diffRun(exp string, pairs []pair, opts DiffOpts) []Delta {
	byCell := map[Cell]*cellAcc{}
	var order []Cell
	for _, pr := range pairs {
		cell := CellOf(pr.a.Spec)
		acc, ok := byCell[cell]
		if !ok {
			acc = &cellAcc{}
			byCell[cell] = acc
			order = append(order, cell)
		}
		acc.add(pr)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].String() < order[j].String() })
	deltas := make([]Delta, 0, len(order))
	for _, cell := range order {
		deltas = append(deltas, byCell[cell].delta(exp, cell, opts))
	}
	return deltas
}

// cellAcc accumulates one cell's aligned pairs.
type cellAcc struct {
	points           int
	specDrift        int
	failedA, failedB int
	goodA, goodB     []float64
	ciA, ciB         []float64
	retxA, retxB     []float64
	paceA, paceB     []float64
	latA, latB       []float64
	fctA, fctB       []float64
}

func (c *cellAcc) add(pr pair) {
	c.points++
	if !bytes.Equal(pr.a.Spec, pr.b.Spec) {
		c.specDrift++
	}
	if pr.a.Failure != nil {
		c.failedA++
	}
	if pr.b.Failure != nil {
		c.failedB++
	}
	if pr.a.Failure != nil || pr.b.Failure != nil {
		return // measured fields are meaningless on a failed side
	}
	c.goodA = append(c.goodA, pr.a.Metrics.GoodputMbps)
	c.goodB = append(c.goodB, pr.b.Metrics.GoodputMbps)
	c.ciA = append(c.ciA, pr.a.Metrics.GoodputCI)
	c.ciB = append(c.ciB, pr.b.Metrics.GoodputCI)
	c.retxA = append(c.retxA, pr.a.Metrics.Retransmits)
	c.retxB = append(c.retxB, pr.b.Metrics.Retransmits)
	if pr.a.Metrics.Profiled && pr.b.Metrics.Profiled {
		c.paceA = append(c.paceA, pr.a.Metrics.PacingShare)
		c.paceB = append(c.paceB, pr.b.Metrics.PacingShare)
	}
	if pr.a.Metrics.AppKind != "" && pr.b.Metrics.AppKind != "" {
		c.latA = append(c.latA, pr.a.Metrics.LatP99ms)
		c.latB = append(c.latB, pr.b.Metrics.LatP99ms)
	}
	if pr.a.Metrics.FlowsStarted > 0 && pr.b.Metrics.FlowsStarted > 0 {
		c.fctA = append(c.fctA, pr.a.Metrics.FCTP99ms)
		c.fctB = append(c.fctB, pr.b.Metrics.FCTP99ms)
	}
}

// meanCI is the 95% CI of a mean of n independent point means with the
// given per-point CI half-widths: sqrt(Σci²)/n.
func meanCI(cis []float64) float64 {
	if len(cis) == 0 {
		return 0
	}
	var ss float64
	for _, ci := range cis {
		ss += ci * ci
	}
	return math.Sqrt(ss) / float64(len(cis))
}

func (c *cellAcc) delta(exp string, cell Cell, opts DiffOpts) Delta {
	d := Delta{
		Exp: exp, Cell: cell, Points: c.points,
		SpecDrift: c.specDrift, FailedA: c.failedA, FailedB: c.failedB,
		GoodA: stats.Mean(c.goodA), GoodB: stats.Mean(c.goodB),
		RetxA: stats.Mean(c.retxA), RetxB: stats.Mean(c.retxB),
	}
	ciA, ciB := meanCI(c.ciA), meanCI(c.ciB)
	if len(c.paceA) > 0 {
		d.HasPace = true
		d.PaceA, d.PaceB = stats.Mean(c.paceA), stats.Mean(c.paceB)
	}
	if len(c.latA) > 0 {
		d.HasApp = true
		d.LatA, d.LatB = stats.Mean(c.latA), stats.Mean(c.latB)
	}
	if len(c.fctA) > 0 {
		d.HasFlows = true
		d.FCTA, d.FCTB = stats.Mean(c.fctA), stats.Mean(c.fctB)
	}
	d.FailureRegressed = c.failedB > c.failedA
	if len(c.goodA) > 0 {
		if stats.SignificantDelta(d.GoodA, d.GoodB, ciA, ciB, opts.Rel) {
			if d.GoodB < d.GoodA {
				d.GoodputRegressed = true
			} else {
				d.Improved = true
			}
		}
		if d.RetxB > d.RetxA &&
			d.RetxB-d.RetxA > opts.RetxAbs &&
			d.RetxB-d.RetxA > opts.Rel*math.Max(d.RetxA, opts.RetxAbs) {
			d.RetxRegressed = true
		}
	}
	if c.failedA > c.failedB && !d.Regressed() {
		d.Improved = true
	}
	return d
}

// WriteDeltas renders the deltas as a per-cell table. It prints nothing
// when deltas is empty, so a self-diff produces empty output.
func WriteDeltas(w io.Writer, deltas []Delta) {
	if len(deltas) == 0 {
		return
	}
	fmt.Fprintf(w, "%-10s %-32s %4s %22s %8s %16s %14s %18s %s\n",
		"exp", "cell", "pts", "goodput Mbps (A→B)", "Δ%", "retx (A→B)", "pace% (A→B)", "req p99 ms (A→B)", "verdict")
	for i := range deltas {
		d := &deltas[i]
		pct := "-"
		if d.GoodA > 0 {
			pct = fmt.Sprintf("%+.1f", (d.GoodB-d.GoodA)/d.GoodA*100)
		}
		pace := "-"
		if d.HasPace {
			pace = fmt.Sprintf("%.1f → %.1f", d.PaceA*100, d.PaceB*100)
		}
		lat := "-"
		if d.HasApp {
			lat = fmt.Sprintf("%.1f → %.1f", d.LatA, d.LatB)
		}
		verdict := "ok"
		switch {
		case d.FailureRegressed:
			verdict = fmt.Sprintf("REGRESSED (failures %d → %d)", d.FailedA, d.FailedB)
		case d.GoodputRegressed && d.RetxRegressed:
			verdict = "REGRESSED (goodput, retx)"
		case d.GoodputRegressed:
			verdict = "REGRESSED (goodput)"
		case d.RetxRegressed:
			verdict = "REGRESSED (retx)"
		case d.Improved:
			verdict = "improved"
		}
		extra := ""
		if d.HasFlows {
			// Flow-churn context rides in the trailer: the FCT p99 has no
			// per-point CI, so it informs but never gates.
			extra += fmt.Sprintf("  [fct p99 %.1f → %.1f ms]", d.FCTA, d.FCTB)
		}
		if d.SpecDrift > 0 {
			extra += fmt.Sprintf("  [spec drift on %d point(s)]", d.SpecDrift)
		}
		fmt.Fprintf(w, "%-10s %-32s %4d %10.1f → %-10.1f %8s %7.0f → %-7.0f %14s %18s %s%s\n",
			d.Exp, d.Cell, d.Points, d.GoodA, d.GoodB, pct, d.RetxA, d.RetxB, pace, lat, verdict, extra)
	}
}
