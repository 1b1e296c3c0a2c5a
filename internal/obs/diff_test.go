package obs

import (
	"strings"
	"testing"
)

func diffRunFrom(goodputs map[string]float64, mutate func(pts []PointRecord)) *Run {
	labels := []string{"p0", "p1", "p2"}
	pts := make([]PointRecord, len(labels))
	for i, l := range labels {
		pts[i] = PointRecord{
			I: i, Label: l,
			Spec:    specJSON("pixel4", "low", "bbr", "ethernet"),
			Metrics: Metrics{GoodputMbps: goodputs[l], GoodputCI: 1, Retransmits: 100},
		}
	}
	if mutate != nil {
		mutate(pts)
	}
	return &Run{
		Manifest: Manifest{V: Version, Exp: "fig2", Points: len(pts), Seeds: 3, Dur: "4s"},
		Points:   pts,
	}
}

func archiveOf(runs ...*Run) *Archive {
	a := &Archive{Runs: map[string]*Run{}}
	for _, r := range runs {
		a.Runs[r.Manifest.Exp] = r
		a.Order = append(a.Order, r.Manifest.Exp)
	}
	return a
}

var baseGoodputs = map[string]float64{"p0": 100, "p1": 110, "p2": 120}

// The acceptance criterion: an archive diffed against itself is empty and
// not regressed.
func TestDiffSelfIsEmpty(t *testing.T) {
	a := archiveOf(diffRunFrom(baseGoodputs, nil))
	deltas, sum, err := Diff(a, a, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("self-diff produced %d deltas: %+v", len(deltas), deltas)
	}
	if sum.Regressed != 0 || sum.Improved != 0 || sum.Unmatched != 0 {
		t.Fatalf("self-diff summary: %+v", sum)
	}
	if sum.Cells != 1 || sum.Experiments != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	var b strings.Builder
	WriteDeltas(&b, deltas)
	if b.Len() != 0 {
		t.Fatalf("self-diff printed output:\n%s", b.String())
	}
}

func TestDiffGoodputRegression(t *testing.T) {
	a := archiveOf(diffRunFrom(baseGoodputs, nil))
	b := archiveOf(diffRunFrom(map[string]float64{"p0": 50, "p1": 55, "p2": 60}, nil))
	deltas, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressed != 1 || len(deltas) != 1 {
		t.Fatalf("regressed=%d deltas=%d", sum.Regressed, len(deltas))
	}
	d := deltas[0]
	if !d.GoodputRegressed || !d.Regressed() {
		t.Fatalf("delta: %+v", d)
	}
	if d.GoodA != 110 || d.GoodB != 55 {
		t.Fatalf("means: %v → %v", d.GoodA, d.GoodB)
	}
	var out strings.Builder
	WriteDeltas(&out, deltas)
	if !strings.Contains(out.String(), "REGRESSED (goodput)") {
		t.Fatalf("table:\n%s", out.String())
	}
}

func TestDiffImprovement(t *testing.T) {
	a := archiveOf(diffRunFrom(baseGoodputs, nil))
	b := archiveOf(diffRunFrom(map[string]float64{"p0": 200, "p1": 220, "p2": 240}, nil))
	deltas, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressed != 0 || sum.Improved != 1 || len(deltas) != 1 || !deltas[0].Improved {
		t.Fatalf("sum=%+v deltas=%+v", sum, deltas)
	}
}

// A delta inside the combined 95% CI of the two means is noise, not a
// regression — even when it exceeds the relative threshold.
func TestDiffNoiseGate(t *testing.T) {
	wide := func(pts []PointRecord) {
		for i := range pts {
			pts[i].Metrics.GoodputCI = 40
		}
	}
	a := archiveOf(diffRunFrom(baseGoodputs, wide))
	b := archiveOf(diffRunFrom(map[string]float64{"p0": 90, "p1": 100, "p2": 110}, wide))
	deltas, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressed != 0 || len(deltas) != 0 {
		t.Fatalf("noise flagged as regression: sum=%+v deltas=%+v", sum, deltas)
	}
	// Same move with tight CIs is real.
	a2 := archiveOf(diffRunFrom(baseGoodputs, nil))
	b2 := archiveOf(diffRunFrom(map[string]float64{"p0": 90, "p1": 100, "p2": 110}, nil))
	_, sum2, err := Diff(a2, b2, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Regressed != 1 {
		t.Fatalf("tight-CI regression missed: %+v", sum2)
	}
}

func TestDiffRetxRegression(t *testing.T) {
	a := archiveOf(diffRunFrom(baseGoodputs, nil))
	b := archiveOf(diffRunFrom(baseGoodputs, func(pts []PointRecord) {
		for i := range pts {
			pts[i].Metrics.Retransmits = 500
		}
	}))
	deltas, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressed != 1 || len(deltas) != 1 || !deltas[0].RetxRegressed {
		t.Fatalf("sum=%+v deltas=%+v", sum, deltas)
	}
	// Below the absolute floor: 100 → 120 retx is not a regression.
	b2 := archiveOf(diffRunFrom(baseGoodputs, func(pts []PointRecord) {
		for i := range pts {
			pts[i].Metrics.Retransmits = 120
		}
	}))
	_, sum2, err := Diff(a, b2, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Regressed != 0 {
		t.Fatalf("sub-floor retx flagged: %+v", sum2)
	}
}

func TestDiffFailureRegression(t *testing.T) {
	a := archiveOf(diffRunFrom(baseGoodputs, nil))
	b := archiveOf(diffRunFrom(baseGoodputs, func(pts []PointRecord) {
		pts[2].Metrics = Metrics{}
		pts[2].Failure = &Failure{Class: "panic", Msg: "boom"}
	}))
	deltas, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressed != 1 || len(deltas) != 1 || !deltas[0].FailureRegressed {
		t.Fatalf("sum=%+v deltas=%+v", sum, deltas)
	}
	var out strings.Builder
	WriteDeltas(&out, deltas)
	if !strings.Contains(out.String(), "failures 0 → 1") {
		t.Fatalf("table:\n%s", out.String())
	}
}

// Alignment is by label, so a perturbed spec knob still pairs the points —
// and the drift is reported, not fatal.
func TestDiffAlignsAcrossSpecDrift(t *testing.T) {
	a := archiveOf(diffRunFrom(baseGoodputs, nil))
	b := archiveOf(diffRunFrom(map[string]float64{"p0": 50, "p1": 55, "p2": 60},
		func(pts []PointRecord) {
			for i := range pts {
				pts[i].Spec = []byte(`{"device":"pixel4","cpu":"low","cc":"bbr","network":"ethernet","stride":50}`)
			}
		}))
	deltas, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Regressed != 1 || len(deltas) != 1 {
		t.Fatalf("drifted points failed to align: sum=%+v", sum)
	}
	if deltas[0].SpecDrift != 3 {
		t.Fatalf("spec drift: %+v", deltas[0])
	}
	var out strings.Builder
	WriteDeltas(&out, deltas)
	if !strings.Contains(out.String(), "spec drift on 3 point(s)") {
		t.Fatalf("table:\n%s", out.String())
	}
}

func TestDiffUnmatchedAndSkipped(t *testing.T) {
	shrunk := diffRunFrom(baseGoodputs, nil)
	shrunk.Points = shrunk.Points[:2]
	shrunk.Manifest.Points = 2
	other := diffRunFrom(baseGoodputs, nil)
	other.Manifest.Exp = "recovery"
	a := archiveOf(diffRunFrom(baseGoodputs, nil), other)
	b := archiveOf(shrunk)
	_, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unmatched != 1 {
		t.Fatalf("unmatched=%d", sum.Unmatched)
	}
	if len(sum.SkippedExps) != 1 || sum.SkippedExps[0] != "recovery" {
		t.Fatalf("skipped=%v", sum.SkippedExps)
	}
}

func TestDiffAllMode(t *testing.T) {
	a := archiveOf(diffRunFrom(baseGoodputs, nil))
	deltas, _, err := Diff(a, a, DiffOpts{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Significant() {
		t.Fatalf("all-mode deltas: %+v", deltas)
	}
	var out strings.Builder
	WriteDeltas(&out, deltas)
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("table:\n%s", out.String())
	}
}

// TestDiffVerdicts: one archive pair whose cells each end in a different
// verdict, with the pacing, request-latency and flow-churn columns filled;
// an experiment only the candidate holds is skipped.
func TestDiffVerdicts(t *testing.T) {
	rec := func(i int, cc string, m Metrics, f *Failure) PointRecord {
		return PointRecord{I: i, Label: cc, Spec: specJSON("pixel4", "low", cc, "ethernet"), Metrics: m, Failure: f}
	}
	runOf := func(exp string, pts ...PointRecord) *Run {
		return &Run{Manifest: Manifest{V: Version, Exp: exp, Points: len(pts)}, Points: pts}
	}
	full := Metrics{GoodputMbps: 100, GoodputCI: 1, Retransmits: 100, Profiled: true, PacingShare: 0.2,
		AppKind: "reqrep", LatP99ms: 5, FlowsStarted: 10, FCTP99ms: 7}
	worse, retx, better := full, full, full
	worse.GoodputMbps, worse.Retransmits = 50, 1000
	retx.Retransmits = 1000
	better.GoodputMbps = 200
	boom := &Failure{Class: "panic", Msg: "boom"}
	a := archiveOf(runOf("fig2", rec(0, "both", full, nil), rec(1, "retx", full, nil),
		rec(2, "better", full, nil), rec(3, "healed", Metrics{}, boom)))
	b := archiveOf(runOf("fig2", rec(0, "both", worse, nil), rec(1, "retx", retx, nil),
		rec(2, "better", better, nil), rec(3, "healed", full, nil)), runOf("recovery"))
	deltas, sum, err := Diff(a, b, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 4 || sum.Regressed != 2 || sum.Improved != 2 || len(sum.SkippedExps) != 1 || sum.SkippedExps[0] != "recovery" {
		t.Fatalf("summary %+v", sum)
	}
	var out strings.Builder
	WriteDeltas(&out, deltas)
	for cc, want := range map[string]string{
		"both":   "20.0 → 20.0          5.0 → 5.0 REGRESSED (goodput, retx)  [fct p99 7.0 → 7.0 ms]",
		"retx":   "REGRESSED (retx)  [fct p99",
		"better": "+100.0",
		"healed": "0.0 → 0.0               -       0 → 0",
	} {
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "/"+cc+"/") {
				line = l
			}
		}
		if !strings.Contains(line, want) {
			t.Errorf("%s row lacks %q:\n%s", cc, want, line)
		}
	}
	if n := strings.Count(out.String(), " improved"); n != 2 {
		t.Errorf("%d improved rows, want 2 (more goodput, fewer failures):\n%s", n, out.String())
	}
}
