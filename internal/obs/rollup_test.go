package obs

import (
	"errors"
	"strings"
	"testing"
)

func specJSON(device, cpu, cc, network string) []byte {
	return []byte(`{"device":"` + device + `","cpu":"` + cpu + `","cc":"` + cc +
		`","network":"` + network + `"}`)
}

func TestCellOf(t *testing.T) {
	c := CellOf(specJSON("pixel4", "low", "bbr", "ethernet"))
	want := Cell{Device: "pixel4", CPU: "low", CC: "bbr", Network: "ethernet"}
	if c != want {
		t.Fatalf("got %+v", c)
	}
	if c.String() != "pixel4/low/bbr/ethernet" {
		t.Fatalf("String: %q", c.String())
	}
	if got := CellOf(nil); got != (Cell{}) {
		t.Fatalf("nil spec: %+v", got)
	}
	if (Cell{}).String() != "-/-/-/-" {
		t.Fatalf("zero cell: %q", (Cell{}).String())
	}
}

func rollupRun() *Run {
	bounds := []float64{16, 64}
	digest := func(count uint64, sum float64) map[string]HistDigest {
		return map[string]HistDigest{
			"pacing_timer_slip_us": {Count: count, Sum: sum, Min: 1, Max: 100,
				Bounds: bounds, Counts: []uint64{count - 1, 0, 1}},
		}
	}
	pts := []PointRecord{
		{I: 0, Label: "a", Spec: specJSON("pixel4", "low", "bbr", "ethernet"),
			Metrics: Metrics{GoodputMbps: 100, Retransmits: 10, Profiled: true, PacingShare: 0.5},
			Digest:  digest(4, 40)},
		{I: 1, Label: "b", Spec: specJSON("pixel4", "low", "bbr", "ethernet"),
			Metrics: Metrics{GoodputMbps: 200, Retransmits: 30, Profiled: true, PacingShare: 0.3},
			Digest:  digest(6, 60)},
		{I: 2, Label: "c", Spec: specJSON("pixel4", "low", "bbr", "ethernet"),
			Failure: &Failure{Class: "panic", Msg: "boom"}},
		{I: 3, Label: "d", Spec: specJSON("mi10", "high", "cubic", "lte"),
			Metrics: Metrics{GoodputMbps: 50}},
	}
	return &Run{
		Manifest: Manifest{V: Version, Exp: "fig2", Points: len(pts), Seeds: 3, Dur: "4s"},
		Points:   pts,
	}
}

func TestRollup(t *testing.T) {
	cells := Rollup(rollupRun())
	if len(cells) != 2 {
		t.Fatalf("got %d cells", len(cells))
	}
	// Sorted by cell string: mi10/... before pixel4/...
	if cells[0].Cell.Device != "mi10" || cells[1].Cell.Device != "pixel4" {
		t.Fatalf("cell order: %v %v", cells[0].Cell, cells[1].Cell)
	}
	px := cells[1]
	if px.Points != 3 || px.Failed != 1 || len(px.Goodputs) != 2 {
		t.Fatalf("pixel4 cell: pts=%d failed=%d goodputs=%d", px.Points, px.Failed, len(px.Goodputs))
	}
	if got := px.GoodputP(50); got != 150 {
		t.Fatalf("p50=%v", got)
	}
	if len(px.Paces) != 2 {
		t.Fatalf("paces: %v", px.Paces)
	}
	h, ok := px.Digest["pacing_timer_slip_us"]
	if !ok || h.Count != 10 || h.Sum != 100 {
		t.Fatalf("merged digest: %+v", h)
	}
	if px.DigestSkipped != 0 {
		t.Fatalf("skipped=%d", px.DigestSkipped)
	}
}

func TestRollupSkipsMismatchedDigestBounds(t *testing.T) {
	r := rollupRun()
	// Same instrument, different bucket bounds: must be skipped, not summed.
	r.Points[1].Digest["pacing_timer_slip_us"] = HistDigest{
		Count: 6, Sum: 60, Min: 1, Max: 100,
		Bounds: []float64{32, 128}, Counts: []uint64{5, 0, 1},
	}
	cells := Rollup(r)
	px := cells[1]
	if px.DigestSkipped != 1 {
		t.Fatalf("skipped=%d", px.DigestSkipped)
	}
	if h := px.Digest["pacing_timer_slip_us"]; h.Count != 4 {
		t.Fatalf("corrupted merge: %+v", h)
	}
}

func TestWriteRollup(t *testing.T) {
	r := rollupRun()
	cells := Rollup(r)
	var b strings.Builder
	if err := WriteRollup(&b, r, cells); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== rollup fig2: 4 points, 2 cells",
		"pixel4/low/bbr/ethernet",
		"mi10/high/cubic/lte",
		"slip p99",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rollup output missing %q:\n%s", want, out)
		}
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteRollupColumns: app and flow-churn cells add their columns, a
// cell without them prints dashes there, skipped digests are noted, and a
// point whose spec does not parse lands in the zero cell.
func TestWriteRollupColumns(t *testing.T) {
	pts := []PointRecord{
		{I: 0, Label: "app", Spec: specJSON("pixel4", "low", "bbr", "wifi"),
			Metrics: Metrics{GoodputMbps: 10, AppKind: "stream", LatP99ms: 12, RebufferPct: 1.5}},
		{I: 1, Label: "churn", Spec: specJSON("pixel4", "low", "bbr", "ethernet"),
			Metrics: Metrics{GoodputMbps: 20, FlowsStarted: 5, FCTP99ms: 30, FastPathShare: 0.9}, DigestSkipped: 2},
		{I: 2, Label: "garbled", Spec: []byte(`{"device":`), Metrics: Metrics{GoodputMbps: 30}},
	}
	r := &Run{Manifest: Manifest{V: Version, Exp: "apps", Points: len(pts), Seeds: 1, Dur: "1s"}, Points: pts}
	var b strings.Builder
	if err := WriteRollup(&b, r, Rollup(r)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"req p99 ms  rbuf% fct p99 ms  fast%\n",
		"-/-/-/-",
		"pixel4/low/bbr/wifi                 1    0      10.0      10.0      10.0         0       -       12.0   1.50          -      -\n",
		"-      -       30.0   90.0  (2 digest histograms skipped: mismatched bounds)\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("rollup lacks %q:\n%s", want, b.String())
		}
	}
	if err := WriteRollup(failWriter{}, r, Rollup(r)); err == nil {
		t.Error("a failed write returned no error")
	}
}
