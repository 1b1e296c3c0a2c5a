package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares candidate b with baseline a on one metric, by the rule of
// the choosing-metrics guide: worse when b's median is worse than a's by more
// than the bound, better when it is better by more than the bound; otherwise
// unresolved when the spread is wider than the bound, and same when it is
// not. The spread of a median of n units is taken as its interquartile range
// over √n. A gain smaller than the bound is claimed with paired runs, not
// with this table.
func verdict(d metricDef, a, b metric) string {
	if a.Value == 0 {
		return "unresolved"
	}
	change := (b.Value - a.Value) / math.Abs(a.Value) // positive = worse
	if d.Better == "higher" {
		change = -change
	}
	spread := func(m metric) float64 {
		if m.N < 2 {
			return 0
		}
		return (m.Q3 - m.Q1) / math.Sqrt(float64(m.N)) / math.Abs(a.Value)
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	case math.Max(spread(a), spread(b)) > d.Bound:
		return "unresolved"
	default:
		return "same"
	}
}

// compareFiles prints, for every workload the two files share, one row per
// metric: both medians with their quartiles, the change, the bound and the
// verdict for end-to-end metrics, and whether sim_digest changed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: the two files come from different environments:\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	byName := map[string]workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	cell := func(m metric) string {
		if m.N > 0 {
			return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", m.Value, m.Q1, m.Q3, m.N)
		}
		return fmt.Sprintf("%.5g", m.Value)
	}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			continue
		}
		digest := "no"
		if ra.SimDigest != rb.SimDigest {
			digest = "YES"
		}
		fmt.Fprintf(tw, "== %s\tseed %d → %d\tsim_digest changed: %s\tfailed %d → %d\t\t\n",
			ra.Name, ra.Seed, rb.Seed, digest, ra.Failed, rb.Failed)
		fmt.Fprintf(tw, "metric\ta: median [q1, q3]\tb: median [q1, q3]\tchange\tbound\tverdict\n")
		for _, d := range allDefs {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			change, bound, v := "-", "-", "-"
			if ma.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(mb.Value-ma.Value)/math.Abs(ma.Value))
			}
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				v = verdict(d, ma, mb)
			}
			fmt.Fprintf(tw, "%s (%s)\t%s\t%s\t%s\t%s\t%s\n", d.Name, d.Unit, cell(ma), cell(mb), change, bound, v)
		}
	}
	return tw.Flush()
}
