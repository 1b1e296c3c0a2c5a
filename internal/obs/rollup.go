// Cross-run aggregation: fold a run archive's grid points into per-cell
// (device×CPU×CC×network) rollups — the fleet-shaped view the paper's
// claims are actually about. Percentiles come from two places: point-level
// goodput distributions across each cell (p50/p90/p99 over grid points),
// and instrument-level histogram digests merged across the cell's points
// (e.g. the pacing-timer slip p99 for "Low-End bbr" as a cohort).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mobbr/internal/stats"
	"mobbr/internal/telemetry"
)

// Cell is the rollup cohort key. Fields hold the spec-codec tokens
// ("pixel4", "low", "bbr", "ethernet"); empty fields render as "-".
type Cell struct {
	Device  string `json:"device"`
	CPU     string `json:"cpu"`
	CC      string `json:"cc"`
	Network string `json:"network"`
}

// String renders the cell as device/cpu/cc/network.
func (c Cell) String() string {
	f := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	return f(c.Device) + "/" + f(c.CPU) + "/" + f(c.CC) + "/" + f(c.Network)
}

// CellOf extracts the cohort key from a point's archived spec: Cell's tags
// pick the four tokens out of core.EncodeSpec's wire form, so no dependency
// on internal/core is required here. Points without a spec (or with an
// unparsable one) land in the zero Cell.
func CellOf(spec json.RawMessage) Cell {
	var c Cell
	if err := json.Unmarshal(spec, &c); err != nil {
		return Cell{}
	}
	return c
}

// CellRollup aggregates one cell's grid points.
type CellRollup struct {
	Cell   Cell
	Points int
	Failed int
	// Goodputs / Retx hold the per-point values (successful points only),
	// for percentile extraction.
	Goodputs []float64
	Retx     []float64
	// Paces holds pacing-timer shares of profiled points only.
	Paces []float64
	// LatP99s / Rebufs hold per-point request-latency p99s (ms) and
	// rebuffer shares (%) of app-workload points only.
	LatP99s []float64
	Rebufs  []float64
	// FCT99s / FastShares hold per-point flow-completion-time p99s (ms)
	// and flow-table fast-path shares of flow-churn points only.
	FCT99s     []float64
	FastShares []float64
	// Digest is the cell-wide merge of the points' instrument digests.
	Digest map[string]telemetry.HistogramSnapshot
	// DigestSkipped counts histograms that could not merge into the cell
	// digest because of mismatched bucket bounds.
	DigestSkipped int
}

// GoodputP returns the p-th percentile of the cell's point goodputs.
func (c *CellRollup) GoodputP(p float64) float64 { return stats.Percentile(c.Goodputs, p) }

// Rollup folds a run's points into sorted per-cell rollups.
func Rollup(r *Run) []CellRollup {
	byCell := map[Cell]*CellRollup{}
	var order []Cell
	for _, p := range r.Points {
		cell := CellOf(p.Spec)
		cr, ok := byCell[cell]
		if !ok {
			cr = &CellRollup{Cell: cell, Digest: map[string]telemetry.HistogramSnapshot{}}
			byCell[cell] = cr
			order = append(order, cell)
		}
		cr.Points++
		if p.Failure != nil {
			cr.Failed++
			continue
		}
		cr.Goodputs = append(cr.Goodputs, p.Metrics.GoodputMbps)
		cr.Retx = append(cr.Retx, p.Metrics.Retransmits)
		if p.Metrics.Profiled {
			cr.Paces = append(cr.Paces, p.Metrics.PacingShare)
		}
		if p.Metrics.AppKind != "" {
			cr.LatP99s = append(cr.LatP99s, p.Metrics.LatP99ms)
			cr.Rebufs = append(cr.Rebufs, p.Metrics.RebufferPct)
		}
		if p.Metrics.FlowsStarted > 0 {
			cr.FCT99s = append(cr.FCT99s, p.Metrics.FCTP99ms)
			cr.FastShares = append(cr.FastShares, p.Metrics.FastPathShare)
		}
		cr.DigestSkipped += p.DigestSkipped
		for name, d := range p.Digest { // each name merges on its own, so map order cannot show
			merged, err := telemetry.MergeHistogramSnapshots(cr.Digest[name], d.Snapshot())
			if err != nil {
				cr.DigestSkipped++
				continue
			}
			cr.Digest[name] = merged
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].String() < order[j].String() })
	out := make([]CellRollup, len(order))
	for i, cell := range order {
		out[i] = *byCell[cell]
	}
	return out
}

// WriteRollup renders the per-cell summary table: goodput percentiles
// across the cell's grid points, mean retransmissions, mean pacing share
// (profiled points only), and — when digests are present — the merged
// pacing-timer slip p99. Cells holding app-workload points additionally
// render the mean request-latency p99 and rebuffer share; cells holding
// flow-churn points the mean FCT p99 and flow-table fast-path share.
func WriteRollup(w io.Writer, r *Run, cells []CellRollup) error {
	fmt.Fprintf(w, "== rollup %s: %d points, %d cells (seeds=%d dur=%s)\n",
		r.Manifest.Exp, r.Manifest.Points, len(cells), r.Manifest.Seeds, r.Manifest.Dur)
	hasDigest := false
	hasApp := false
	hasFlows := false
	for i := range cells {
		if len(cells[i].Digest) > 0 {
			hasDigest = true
		}
		if len(cells[i].LatP99s) > 0 {
			hasApp = true
		}
		if len(cells[i].FCT99s) > 0 {
			hasFlows = true
		}
	}
	fmt.Fprintf(w, "%-32s %4s %4s %9s %9s %9s %9s %7s", "cell", "pts", "fail",
		"gput p50", "p90", "p99", "retx", "pace%")
	if hasDigest {
		fmt.Fprintf(w, " %12s", "slip p99 µs")
	}
	if hasApp {
		fmt.Fprintf(w, " %10s %6s", "req p99 ms", "rbuf%")
	}
	if hasFlows {
		fmt.Fprintf(w, " %10s %6s", "fct p99 ms", "fast%")
	}
	fmt.Fprintln(w)
	for i := range cells {
		c := &cells[i]
		pace := "-"
		if len(c.Paces) > 0 {
			pace = fmt.Sprintf("%.1f", stats.Mean(c.Paces)*100)
		}
		fmt.Fprintf(w, "%-32s %4d %4d %9.1f %9.1f %9.1f %9.0f %7s",
			c.Cell, c.Points, c.Failed,
			c.GoodputP(50), c.GoodputP(90), c.GoodputP(99),
			stats.Mean(c.Retx), pace)
		if hasDigest {
			slip := "-"
			if h, ok := c.Digest["pacing_timer_slip_us"]; ok && h.Count > 0 {
				slip = fmt.Sprintf("%.0f", h.Quantile(0.99))
			}
			fmt.Fprintf(w, " %12s", slip)
		}
		if hasApp {
			lat, rbuf := "-", "-"
			if len(c.LatP99s) > 0 {
				lat = fmt.Sprintf("%.1f", stats.Mean(c.LatP99s))
				rbuf = fmt.Sprintf("%.2f", stats.Mean(c.Rebufs))
			}
			fmt.Fprintf(w, " %10s %6s", lat, rbuf)
		}
		if hasFlows {
			fct, fast := "-", "-"
			if len(c.FCT99s) > 0 {
				fct = fmt.Sprintf("%.1f", stats.Mean(c.FCT99s))
				fast = fmt.Sprintf("%.1f", stats.Mean(c.FastShares)*100)
			}
			fmt.Fprintf(w, " %10s %6s", fct, fast)
		}
		if c.DigestSkipped > 0 {
			fmt.Fprintf(w, "  (%d digest histograms skipped: mismatched bounds)", c.DigestSkipped)
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}
