package repro

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/iperf"
	"mobbr/internal/mobility"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

func loadBundled(t *testing.T, name string) mobility.Trace {
	t.Helper()
	tr, err := mobility.Load(filepath.Join("..", "mobility", "testdata", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return tr
}

// TestTraceExperimentBundled replays both bundled dataset samples end to end:
// all three congestion controls on both CPU configurations, invariant checker
// armed, per-segment stats populated.
func TestTraceExperimentBundled(t *testing.T) {
	for _, name := range []string{"irish4g_sample.csv", "nyc_lte_sample.jsonl"} {
		t.Run(name, func(t *testing.T) {
			e, err := NewTraceExperiment(loadBundled(t, name))
			if err != nil {
				t.Fatalf("NewTraceExperiment: %v", err)
			}
			rows := runGrid(t, e, RunOpts{Seeds: 1})
			if len(rows) != 6 {
				t.Fatalf("got %d rows, want 6 (3 CCs × 2 CPU configs)", len(rows))
			}
			for _, r := range rows {
				if r.GoodputMbps <= 0 {
					t.Errorf("%s: no goodput", r.Point.Label)
				}
				if r.RTTms <= 0 {
					t.Errorf("%s: no RTT", r.Point.Label)
				}
				if len(r.Segments) != len(e.Compiled.Segments) {
					t.Errorf("%s: %d segment rows, want %d", r.Point.Label, len(r.Segments), len(e.Compiled.Segments))
				}
				// The outage segments must show less goodput than the best
				// nominal segment (nothing flows while the link is dark).
				var bestNominal, worstOutage float64
				worstOutage = -1
				for j, sr := range r.Segments {
					switch e.Compiled.Segments[j].Kind {
					case mobility.SegNominal:
						if sr.GoodputMbps > bestNominal {
							bestNominal = sr.GoodputMbps
						}
					case mobility.SegOutage:
						if worstOutage < 0 || sr.GoodputMbps > worstOutage {
							worstOutage = sr.GoodputMbps
						}
					}
				}
				if bestNominal <= 0 {
					t.Errorf("%s: no goodput in any nominal segment", r.Point.Label)
				}
				if worstOutage >= 0 && worstOutage >= bestNominal {
					t.Errorf("%s: outage goodput %.2f >= nominal %.2f", r.Point.Label, worstOutage, bestNominal)
				}
			}
			PrintTrace(io.Discard, e, rows)
		})
	}
}

// TestTraceExperimentPresets runs a short synthesized commute for every
// preset through the full grid.
func TestTraceExperimentPresets(t *testing.T) {
	for _, p := range mobility.Presets() {
		t.Run(string(p), func(t *testing.T) {
			tr, err := mobility.Synthesize(p, 2*time.Second, mobility.DefaultTick, 7)
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}
			e, err := NewTraceExperiment(tr)
			if err != nil {
				t.Fatalf("NewTraceExperiment: %v", err)
			}
			rows := runGrid(t, e, RunOpts{Seeds: 1})
			if len(rows) != 6 {
				t.Fatalf("got %d rows, want 6", len(rows))
			}
			for _, r := range rows {
				if r.GoodputMbps <= 0 {
					t.Errorf("%s: no goodput", r.Point.Label)
				}
			}
		})
	}
}

// TestTraceReplayByteIdenticalTelemetry: the whole replay pipeline — load,
// resample, compile, install, run — is deterministic: the same seed and the
// same trace produce byte-identical telemetry JSONL across two runs.
func TestTraceReplayByteIdenticalTelemetry(t *testing.T) {
	c, err := CompileTrace(loadBundled(t, "irish4g_sample.csv"))
	if err != nil {
		t.Fatalf("CompileTrace: %v", err)
	}
	runOnce := func() *bytes.Buffer {
		e, err := NewTraceExperiment(c.Trace)
		if err != nil {
			t.Fatalf("NewTraceExperiment: %v", err)
		}
		spec := e.Points[0].Spec
		spec.Seed = 42
		spec.Telemetry = telemetry.Config{Trace: true}
		res, err := core.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Events.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := runOnce(), runOnce()
	if a.Len() == 0 {
		t.Fatal("empty telemetry trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical-seed trace replays produced different JSONL telemetry")
	}
}

// TestTraceReplayEmitsSegmentAndFaultEvents: the installed replay announces
// every trace segment (begin and end) and the compiled fault events on the
// telemetry bus.
func TestTraceReplayEmitsSegmentAndFaultEvents(t *testing.T) {
	tr, err := mobility.Synthesize(mobility.Train, 3*time.Second, mobility.DefaultTick, 11)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	e, err := NewTraceExperiment(tr)
	if err != nil {
		t.Fatalf("NewTraceExperiment: %v", err)
	}
	spec := e.Points[0].Spec
	spec.Seed = 1
	spec.Telemetry = telemetry.Config{Trace: true}
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	segs := res.Events.Filter(telemetry.KindSegment)
	if want := 2 * len(e.Compiled.Segments); len(segs) != want {
		t.Errorf("segment events = %d, want %d (begin+end per segment)", len(segs), want)
	}
	if len(res.Events.Filter(telemetry.KindFault)) == 0 {
		t.Error("no fault events from the compiled schedule")
	}
}

func TestSegmentStats(t *testing.T) {
	segs := []mobility.Segment{
		{Start: 0, End: time.Second, Kind: mobility.SegNominal},
		{Start: time.Second, End: 2 * time.Second, Kind: mobility.SegOutage},
	}
	ivals := []iperf.Interval{
		{Start: 0, End: 500 * time.Millisecond, Goodput: 10 * units.Mbps, AvgRTT: 40 * time.Millisecond, Retransmits: 1},
		{Start: 500 * time.Millisecond, End: time.Second, Goodput: 20 * units.Mbps, AvgRTT: 60 * time.Millisecond, Retransmits: 2},
		{Start: time.Second, End: 1500 * time.Millisecond, Goodput: 0, AvgRTT: 80 * time.Millisecond, Retransmits: 5},
	}
	rows := segmentStats(ivals, segs)
	if rows[0].GoodputMbps != 15 || rows[0].RTTms != 50 || rows[0].Retransmits != 3 {
		t.Errorf("segment 0 = %+v, want 15 Mbps / 50 ms / 3 retx", rows[0])
	}
	if rows[1].GoodputMbps != 0 || rows[1].Retransmits != 5 {
		t.Errorf("segment 1 = %+v, want 0 Mbps / 5 retx", rows[1])
	}
}
