package repro

import (
	"strings"
	"testing"
	"time"

	"mobbr/internal/obs"
)

func TestAllExperimentsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" {
			t.Errorf("experiment %+v missing id or title", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if len(e.Points) == 0 {
			t.Errorf("experiment %q has no points", e.ID)
		}
		labels := map[string]bool{}
		for _, p := range e.Points {
			if p.Label == "" {
				t.Errorf("%s: point with empty label", e.ID)
			}
			if labels[p.Label] {
				t.Errorf("%s: duplicate label %q", e.ID, p.Label)
			}
			labels[p.Label] = true
		}
	}
	// The paper's evaluation artifacts must all be present.
	for _, id := range []string{"fig2", "fig3", "bbr2", "modeloff", "fixedrate",
		"fig4", "fig5", "fig6", "fig7", "shallow", "fig8", "table2", "fig9", "memory"} {
		if !seen[id] {
			t.Errorf("missing paper experiment %q", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig8" {
		t.Fatalf("got %q", e.ID)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// TestCalibrationByIDOnly: the 17 cost-model anchors resolve by id, each
// with a distinct label and the paper's stated goodput, and stay out of
// All(), which keeps -exp all output and the grid_paper benchmark as they
// are.
func TestCalibrationByIDOnly(t *testing.T) {
	e, err := ByID("calibrate")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "calibrate" || len(e.Points) != 17 {
		t.Fatalf("calibrate: id %q, %d points, want 17", e.ID, len(e.Points))
	}
	labels := map[string]bool{}
	for _, p := range e.Points {
		if p.PaperMbps <= 0 || labels[p.Label] {
			t.Errorf("point %q: paper %v Mbps, duplicate label %v", p.Label, p.PaperMbps, labels[p.Label])
		}
		labels[p.Label] = true
	}
	for _, all := range All() {
		if all.ID == "calibrate" {
			t.Fatal("calibrate leaked into All(); -exp all output would change")
		}
	}
}

func TestFigure2CoversTable1AndConnSweep(t *testing.T) {
	e := Figure2()
	// 4 configs × 2 CCs × 4 conn counts.
	if len(e.Points) != 32 {
		t.Fatalf("fig2 points = %d, want 32", len(e.Points))
	}
	anchors := 0
	for _, p := range e.Points {
		if p.PaperMbps > 0 {
			anchors++
		}
	}
	if anchors < 6 {
		t.Errorf("fig2 has %d paper anchors, want >= 6", anchors)
	}
}

func TestTable2PaperValues(t *testing.T) {
	e := Table2()
	if len(e.Points) != len(Strides) {
		t.Fatalf("table2 points = %d, want %d", len(e.Points), len(Strides))
	}
	for _, p := range e.Points {
		if p.PaperMbps <= 0 || p.PaperRTTms <= 0 {
			t.Errorf("table2 %s missing paper values", p.Label)
		}
		if p.Spec.Stride < 1 {
			t.Errorf("table2 %s stride %v", p.Label, p.Spec.Stride)
		}
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	e, _ := ByID("modeloff")
	rows := runGrid(t, e, RunOpts{Dur: time.Second, Seeds: 1})
	if len(rows) != len(e.Points) {
		t.Fatalf("rows = %d, want %d", len(rows), len(e.Points))
	}
	for _, r := range rows {
		if r.GoodputMbps <= 0 {
			t.Errorf("%s: zero goodput", r.Point.Label)
		}
	}
	var buf strings.Builder
	Print(&buf, e, rows)
	if !strings.Contains(buf.String(), "modeloff") {
		t.Error("Print output missing experiment id")
	}
	if strings.Count(buf.String(), "\n") < len(rows)+2 {
		t.Error("Print output too short")
	}
}

func TestPacingOverridesAreDistinctPointers(t *testing.T) {
	// Regression: the on/off specs share a *bool; mutating one experiment
	// must not flip another's.
	f4 := Figure4()
	var onCount, offCount int
	for _, p := range f4.Points {
		if p.Spec.PacingOverride == nil {
			onCount++
		} else if !*p.Spec.PacingOverride {
			offCount++
		}
	}
	if onCount != 3 || offCount != 3 {
		t.Errorf("fig4 pacing split = %d on / %d off, want 3/3", onCount, offCount)
	}
}

// TestByIDResolvesExtraGrids: the grids kept out of All resolve by id.
func TestByIDResolvesExtraGrids(t *testing.T) {
	for _, id := range []string{"scale", "recovery", "calibrate"} {
		e, err := ByID(id)
		if err != nil || e.ID != id || len(e.Points) == 0 {
			t.Errorf("ByID(%q) = %q with %d points, err %v", id, e.ID, len(e.Points), err)
		}
	}
}

// TestPrintColumns: rows that ran an app or the flow-churn workload add
// their columns, a row that did not prints dashes there, and a failed row
// names its class, rule and attempts.
func TestPrintColumns(t *testing.T) {
	e := Experiment{ID: "cols", Title: "printed columns", Points: []Point{
		{Label: "app", PaperMbps: 140}, {Label: "churn"}, {Label: "bulk"}, {Label: "broken"},
	}}
	rows := []Row{
		{Point: e.Points[0], PointRecord: obs.PointRecord{Metrics: obs.Metrics{GoodputMbps: 100, Profiled: true, PacingShare: 0.25,
			AppKind: "reqrep", Requests: 12, LatP50ms: 1, LatP90ms: 2, LatP99ms: 3, RebufferPct: 0.5}}},
		{Point: e.Points[1], PointRecord: obs.PointRecord{Metrics: obs.Metrics{GoodputMbps: 50, FlowsStarted: 9, FlowsCompleted: 8,
			FlowsPeakLive: 4, FCTP50ms: 5, FCTP99ms: 6, FastPathShare: 0.75}}},
		{Point: e.Points[2], PointRecord: obs.PointRecord{Metrics: obs.Metrics{GoodputMbps: 10}}},
		{Point: e.Points[3], PointRecord: obs.PointRecord{Failure: &obs.Failure{Class: "violation", Rule: "inflight/counter", Attempts: 2}}},
	}
	var b strings.Builder
	Print(&b, e, rows)
	for _, want := range []string{
		"  pace%     app    reqs   p50 ms   p90 ms   p99 ms  rbuf%    flows     done     peak  fct50 ms  fct99 ms  fast%\n",
		"      140",
		"  25.0  reqrep      12      1.0      2.0      3.0   0.50        -        -        -         -         -      -\n",
		"   0.0       -       -        -        -        -      -        9        8        4       5.0       6.0   75.0\n",
		"broken                               FAILED violation (inflight/counter) after 2 attempts\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, b.String())
		}
	}
}
