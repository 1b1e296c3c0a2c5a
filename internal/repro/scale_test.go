package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/obs"
	"mobbr/internal/units"
)

// miniScale is a trimmed churn grid for runner tests: small live sets so a
// 300 ms point finishes in milliseconds of wall clock.
func miniScale() Experiment {
	pt := func(label, cc string, live int) Point {
		s := baseSpec(device.LowEnd, cc, 1)
		s.Flows = &flows.Config{
			ArrivalRate:  2000,
			MaxLive:      live,
			InitialFlows: live,
			MiceBytes:    4 * units.KB,
		}
		return Point{Label: label, Spec: s}
	}
	return Experiment{
		ID:    "miniscale",
		Title: "trimmed churn grid",
		Points: []Point{
			pt("64 cubic", "cubic", 64),
			pt("64 bbr", "bbr", 64),
			pt("256 bbr", "bbr", 256),
		},
	}
}

// TestScaleInListingNotInAll: the churn grid is reachable by id but stays
// out of All(), which keeps -exp all output (and the golden corpus behind
// it) byte-identical to the pre-churn tree.
func TestScaleInListingNotInAll(t *testing.T) {
	e, err := ByID("scale")
	if err != nil {
		t.Fatalf("ByID(scale): %v", err)
	}
	if e.ID != "scale" || len(e.Points) == 0 {
		t.Fatalf("scale experiment malformed: id=%q points=%d", e.ID, len(e.Points))
	}
	for _, p := range e.Points {
		if p.Spec.Flows == nil {
			t.Errorf("scale point %q has no flows config", p.Label)
		}
	}
	for _, all := range All() {
		if all.ID == "scale" {
			t.Fatal("scale leaked into All(); -exp all output would change")
		}
	}
}

// TestScaleJournalRoundTrip: every flows column survives the journal codec
// — the record a resume reads back equals the one the runner wrote, so a
// resumed grid prints the same table an uninterrupted one did.
func TestScaleJournalRoundTrip(t *testing.T) {
	e := miniScale()
	opts := RunOpts{Dur: 300 * time.Millisecond, Seeds: 2, Journal: filepath.Join(t.TempDir(), "j.jsonl")}
	rec := obs.PointRecord{
		V: obs.Version, I: 2, Label: e.Points[2].Label, Spec: json.RawMessage(`{"cc":"bbr"}`),
		Metrics: obs.Metrics{
			GoodputMbps:    123.4,
			RTTms:          8.5,
			Retransmits:    17,
			CPUUtil:        0.93,
			FlowsStarted:   12_345,
			FlowsCompleted: 11_111,
			FlowsPeakLive:  512,
			FCTP50ms:       42.5,
			FCTP99ms:       900.25,
			FastPathShare:  0.703,
		},
		Events: 987654,
	}
	jw, err := openJournal(opts.Journal, e, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := jw.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := parseJournal(data, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
		t.Fatalf("journal round trip diverged:\n got  %+v\n want %+v", recs, rec)
	}
}

// TestScaleArchiveCarriesFlowMetrics: the obs archive point record carries
// the churn metrics, so rollup and `mobbr diff` see them.
func TestScaleArchiveCarriesFlowMetrics(t *testing.T) {
	e := miniScale()
	e.Points = e.Points[:1]
	rows := runGrid(t, e, RunOpts{Dur: 300 * time.Millisecond, Seeds: 1, Workers: 1})
	run, err := BuildExperimentRun(e, rows, ArchiveOpts{Dur: 300 * time.Millisecond, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := run.Points[0].Metrics
	if m.FlowsStarted != rows[0].FlowsStarted || m.FlowsCompleted != rows[0].FlowsCompleted {
		t.Errorf("archive flow counts %d/%d != row %d/%d",
			m.FlowsStarted, m.FlowsCompleted, rows[0].FlowsStarted, rows[0].FlowsCompleted)
	}
	if m.FCTP99ms != rows[0].FCTP99ms || m.FastPathShare != rows[0].FastPathShare {
		t.Errorf("archive FCT/fast-path %v/%v != row %v/%v",
			m.FCTP99ms, m.FastPathShare, rows[0].FCTP99ms, rows[0].FastPathShare)
	}
}
