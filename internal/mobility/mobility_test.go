package mobility

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobbr/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

func mustLoad(t *testing.T, name string) Trace {
	t.Helper()
	tr, err := Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return tr
}

func TestValidateRejects(t *testing.T) {
	good := Trace{Name: "t", Samples: []Sample{{T: 0, Rate: units.Mbps}, {T: time.Second, Rate: units.Mbps}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	cases := []struct {
		name string
		tr   Trace
	}{
		{"empty", Trace{Name: "t"}},
		{"negative time", Trace{Name: "t", Samples: []Sample{{T: -time.Second, Rate: units.Mbps}}}},
		{"non-monotone", Trace{Name: "t", Samples: []Sample{
			{T: time.Second, Rate: units.Mbps}, {T: time.Second, Rate: units.Mbps}}}},
		{"negative rate", Trace{Name: "t", Samples: []Sample{{T: 0, Rate: -1}}}},
		{"negative rtt", Trace{Name: "t", Samples: []Sample{{T: 0, Rate: units.Mbps, RTT: -time.Millisecond}}}},
		{"loss above one", Trace{Name: "t", Samples: []Sample{{T: 0, Rate: units.Mbps, Loss: 1.5}}}},
		{"loss NaN", Trace{Name: "t", Samples: []Sample{{T: 0, Rate: units.Mbps, Loss: math.NaN()}}}},
		{"negative tick", Trace{Name: "t", Tick: -1, Samples: []Sample{{T: 0, Rate: units.Mbps}}}},
	}
	for _, c := range cases {
		if err := c.tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed trace", c.name)
		}
	}
}

func TestStats(t *testing.T) {
	tr := Trace{Name: "t", Tick: time.Second, Samples: []Sample{
		{T: 0, Rate: 10 * units.Mbps, RTT: 40 * time.Millisecond},
		{T: time.Second, Rate: 0, Loss: 1},
		{T: 2 * time.Second, Rate: 20 * units.Mbps, RTT: 60 * time.Millisecond},
		{T: 3 * time.Second, Rate: 30 * units.Mbps},
	}}
	st := tr.Stats()
	if st.MeanRate != 20*units.Mbps {
		t.Errorf("MeanRate = %v, want 20Mbps", st.MeanRate)
	}
	if st.PeakRate != 30*units.Mbps {
		t.Errorf("PeakRate = %v, want 30Mbps", st.PeakRate)
	}
	if st.OutageFraction != 0.25 {
		t.Errorf("OutageFraction = %v, want 0.25", st.OutageFraction)
	}
	if st.MeanRTT != 50*time.Millisecond {
		t.Errorf("MeanRTT = %v, want 50ms", st.MeanRTT)
	}
	if d := tr.Duration(); d != 4*time.Second {
		t.Errorf("Duration = %v, want 4s", d)
	}
}

func TestResample(t *testing.T) {
	// Irregular samples: two in the first bucket (averaged), a gap over the
	// second bucket (holds previous), one in the third.
	tr := Trace{Name: "t", Samples: []Sample{
		{T: 0, Rate: 10 * units.Mbps, RTT: 40 * time.Millisecond},
		{T: 400 * time.Millisecond, Rate: 20 * units.Mbps, RTT: 60 * time.Millisecond},
		{T: 2500 * time.Millisecond, Rate: 5 * units.Mbps, RTT: 100 * time.Millisecond},
	}}
	rs, err := tr.Resample(time.Second)
	if err != nil {
		t.Fatalf("Resample: %v", err)
	}
	if rs.Tick != time.Second {
		t.Errorf("Tick = %v", rs.Tick)
	}
	if len(rs.Samples) != 3 {
		t.Fatalf("got %d samples, want 3: %+v", len(rs.Samples), rs.Samples)
	}
	if rs.Samples[0].Rate != 15*units.Mbps || rs.Samples[0].RTT != 50*time.Millisecond {
		t.Errorf("bucket 0 = %+v, want mean 15Mbps/50ms", rs.Samples[0])
	}
	if rs.Samples[1].Rate != 15*units.Mbps {
		t.Errorf("empty bucket 1 = %+v, want previous value held", rs.Samples[1])
	}
	if rs.Samples[2].Rate != 5*units.Mbps {
		t.Errorf("bucket 2 = %+v, want 5Mbps", rs.Samples[2])
	}
	for i, s := range rs.Samples {
		if want := time.Duration(i) * time.Second; s.T != want {
			t.Errorf("sample %d at %v, want %v", i, s.T, want)
		}
	}
	if _, err := tr.Resample(0); err == nil {
		t.Error("Resample(0) accepted")
	}
}

func TestSegments(t *testing.T) {
	// Mean non-outage rate is 10 Mbps → degraded cutoff 3 Mbps.
	tr := Trace{Name: "t", Tick: time.Second, Samples: []Sample{
		{T: 0, Rate: 14 * units.Mbps},
		{T: 1 * time.Second, Rate: 14 * units.Mbps},
		{T: 2 * time.Second, Rate: 0},
		{T: 3 * time.Second, Rate: 0},
		{T: 4 * time.Second, Rate: 2 * units.Mbps},
		{T: 5 * time.Second, Rate: 10 * units.Mbps},
	}}
	segs := tr.Segments()
	want := []struct {
		start, end time.Duration
		kind       SegmentKind
	}{
		{0, 2 * time.Second, SegNominal},
		{2 * time.Second, 4 * time.Second, SegOutage},
		{4 * time.Second, 5 * time.Second, SegDegraded},
		{5 * time.Second, 6 * time.Second, SegNominal},
	}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments %+v, want %d", len(segs), segs, len(want))
	}
	for i, w := range want {
		if segs[i].Start != w.start || segs[i].End != w.end || segs[i].Kind != w.kind {
			t.Errorf("segment %d = %+v, want %v-%v %v", i, segs[i], w.start, w.end, w.kind)
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no header", ""},
		{"no time column", "x,dl_bitrate_kbps\n1,2\n"},
		{"no rate column", "timestamp_ms,x\n1,2\n"},
		{"bad timestamp", "timestamp_ms,rate_kbps\nnope,2\n"},
		{"NaN rate", "timestamp_ms,rate_kbps\n0,NaN\n"},
		{"negative rate", "timestamp_ms,rate_kbps\n0,-3\n"},
		{"non-monotone", "timestamp_ms,rate_kbps\n0,1\n100,2\n100,3\n"},
		{"loss out of range", "timestamp_ms,rate_kbps,loss\n0,1,2\n"},
		{"short row", "timestamp_ms,rate_kbps\n0\n"},
		{"empty body", "timestamp_ms,rate_kbps\n"},
	}
	for _, c := range cases {
		if _, err := ParseCSV("t", strings.NewReader(c.in)); err == nil {
			t.Errorf("ParseCSV %s: accepted", c.name)
		}
	}
}

// TestNoDurationRejected: a lone sample with no tick covers no time, so
// parsing, resampling and compiling all refuse it instead of replaying a
// commute whose only segment is empty.
func TestNoDurationRejected(t *testing.T) {
	const want = `trace "one" covers no time`
	_, err := ParseCSV("one", strings.NewReader("timestamp_ms,dl_bitrate_kbps,rtt_ms,loss\n0,10000,76,0.0\n"))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ParseCSV: %v, want %q", err, want)
	}
	one := Trace{Name: "one", Samples: []Sample{{Rate: 10 * units.Mbps, RTT: 76 * time.Millisecond}}}
	if _, err := one.Resample(100 * time.Millisecond); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Resample: %v, want %q", err, want)
	}
	if _, err := Compile(one, CompileOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Compile: %v, want %q", err, want)
	}
}

func TestParseJSONLErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"not json", "hello\n"},
		{"missing t_ms", `{"rate_kbps": 1}` + "\n"},
		{"missing rate", `{"t_ms": 0}` + "\n"},
		{"negative rate", `{"t_ms": 0, "rate_kbps": -1}` + "\n"},
		{"loss out of range", `{"t_ms": 0, "rate_kbps": 1, "loss": 2}` + "\n"},
		{"non-monotone", `{"t_ms": 0, "rate_kbps": 1}` + "\n" + `{"t_ms": 0, "rate_kbps": 1}` + "\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := ParseJSONL("t", strings.NewReader(c.in)); err == nil {
			t.Errorf("ParseJSONL %s: accepted", c.name)
		}
	}
}

func TestParseNormalizesTimestamps(t *testing.T) {
	tr, err := ParseJSONL("t", strings.NewReader(
		`{"t_ms": 1650000000000, "rate_kbps": 1000}`+"\n"+
			`{"t_ms": 1650000000500, "rate_kbps": 2000}`+"\n"))
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if tr.Samples[0].T != 0 || tr.Samples[1].T != 500*time.Millisecond {
		t.Errorf("timestamps not normalized: %+v", tr.Samples)
	}
}

func TestLoadBundledTraces(t *testing.T) {
	for _, name := range []string{"irish4g_sample.csv", "nyc_lte_sample.jsonl"} {
		tr := mustLoad(t, name)
		st := tr.Stats()
		if st.OutageFraction == 0 {
			t.Errorf("%s: expected an outage stretch, got none", name)
		}
		if st.MeanRate == 0 {
			t.Errorf("%s: zero mean rate", name)
		}
		hasLoss := false
		for _, s := range tr.Samples {
			if s.Rate > 0 && s.Loss > 0 {
				hasLoss = true
				break
			}
		}
		if !hasLoss {
			t.Errorf("%s: expected a lossy stretch, got none", name)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	for _, p := range Presets() {
		a, err := Synthesize(p, 5*time.Second, DefaultTick, 42)
		if err != nil {
			t.Fatalf("Synthesize(%s): %v", p, err)
		}
		b, err := Synthesize(p, 5*time.Second, DefaultTick, 42)
		if err != nil {
			t.Fatalf("Synthesize(%s): %v", p, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", p)
		}
		c, err := Synthesize(p, 5*time.Second, DefaultTick, 43)
		if err != nil {
			t.Fatalf("Synthesize(%s): %v", p, err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical traces", p)
		}
		if got := len(a.Samples); got != 50 {
			t.Errorf("%s: %d samples, want 50", p, got)
		}
	}
}

func TestPresetMatrixRowsSum(t *testing.T) {
	for _, p := range Presets() {
		m, start, err := presetMatrix(p)
		if err != nil {
			t.Fatalf("presetMatrix(%s): %v", p, err)
		}
		if start < 0 || start >= numStates {
			t.Errorf("%s: start state %d out of range", p, start)
		}
		for i, row := range m {
			sum := 0.0
			for _, pr := range row {
				if pr < 0 {
					t.Errorf("%s: negative probability in row %d", p, i)
				}
				sum += pr
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: row %d sums to %v, want 1", p, i, sum)
			}
		}
	}
}

func TestParsePreset(t *testing.T) {
	if p, err := ParsePreset("DRIVING"); err != nil || p != Driving {
		t.Errorf("ParsePreset(DRIVING) = %v, %v", p, err)
	}
	if _, err := ParsePreset("teleporting"); err == nil {
		t.Error("ParsePreset accepted an unknown preset")
	}
}

func TestGEForMeanLoss(t *testing.T) {
	for _, mean := range []float64{0.005, 0.02, 0.08, 0.3} {
		ge := geFor(mean)
		if err := ge.Validate(); err != nil {
			t.Errorf("geFor(%v) invalid: %v", mean, err)
		}
		// Stationary occupancy piBad = PG2B/(PG2B+PB2G); mean loss should
		// come back out as piBad*LossBad.
		piBad := ge.PGoodToBad / (ge.PGoodToBad + ge.PBadToGood)
		got := piBad * ge.LossBad
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("geFor(%v): stationary loss %v (off by >5%%)", mean, got)
		}
	}
}

func TestCompileBasics(t *testing.T) {
	tr := Trace{Name: "t", Tick: time.Second, Samples: []Sample{
		{T: 0, Rate: 10 * units.Mbps, RTT: 80 * time.Millisecond},
		{T: 1 * time.Second, Rate: 10 * units.Mbps, RTT: 80 * time.Millisecond}, // within hysteresis: no step
		{T: 2 * time.Second, Rate: 0, Loss: 1},                                  // outage
		{T: 3 * time.Second, Rate: 4 * units.Mbps, RTT: 120 * time.Millisecond, Loss: 0.02},
		{T: 4 * time.Second, Rate: 4 * units.Mbps, RTT: 120 * time.Millisecond, Loss: 0.02},
	}}
	c, err := Compile(tr, CompileOptions{OtherRTT: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var steps, blackouts, delays, bursts int
	for _, ev := range c.Schedule.Events {
		switch ev.String()[:4] {
		case "rate":
			steps++
		case "blac":
			blackouts++
		case "dela":
			delays++
		case "burs":
			bursts++
		}
	}
	if steps != 2 {
		t.Errorf("%d rate steps, want 2 (initial + post-outage re-assert)", steps)
	}
	if blackouts != 1 {
		t.Errorf("%d blackouts, want 1", blackouts)
	}
	if delays != 2 {
		t.Errorf("%d delay steps, want 2", delays)
	}
	if bursts != 1 {
		t.Errorf("%d loss windows, want 1", bursts)
	}
	// One-way delay: (80ms - 30ms)/2 = 25ms.
	found := false
	for _, ev := range c.Schedule.Events {
		if strings.Contains(ev.String(), "25ms") {
			found = true
		}
	}
	if !found {
		t.Errorf("no 25ms delay step in %v", c.Schedule.Events)
	}
}

func TestCompileTrailingOutage(t *testing.T) {
	tr := Trace{Name: "t", Tick: time.Second, Samples: []Sample{
		{T: 0, Rate: 10 * units.Mbps},
		{T: 1 * time.Second, Rate: 0, Loss: 1},
		{T: 2 * time.Second, Rate: 0, Loss: 1},
	}}
	c, err := Compile(tr, CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	found := false
	for _, ev := range c.Schedule.Events {
		if strings.HasPrefix(ev.String(), "blackout") {
			found = true
		}
	}
	if !found {
		t.Error("trailing outage produced no blackout")
	}
}

func TestCompileRejectsBadOptions(t *testing.T) {
	tr := Trace{Name: "t", Tick: time.Second, Samples: []Sample{{T: 0, Rate: units.Mbps}}}
	if _, err := Compile(tr, CompileOptions{}); err != nil {
		t.Fatalf("Compile rejected the trace itself: %v", err)
	}
	for _, opt := range []CompileOptions{
		{Hop: -1},
		{RateHysteresis: -0.1},
		{RateHysteresis: 1.5},
		{LossThreshold: 2},
		{OtherRTT: -time.Second},
	} {
		if _, err := Compile(tr, opt); err == nil {
			t.Errorf("Compile accepted options %+v", opt)
		}
	}
}

// TestCompileGolden locks the full lowering of both bundled dataset samples:
// every schedule event and every segment. Regenerate with -update after an
// intentional compiler change.
func TestCompileGolden(t *testing.T) {
	for _, name := range []string{"irish4g_sample.csv", "nyc_lte_sample.jsonl"} {
		tr := mustLoad(t, name)
		rs, err := tr.Resample(500 * time.Millisecond)
		if err != nil {
			t.Fatalf("Resample(%s): %v", name, err)
		}
		c, err := Compile(rs, CompileOptions{OtherRTT: 30 * time.Millisecond})
		if err != nil {
			t.Fatalf("Compile(%s): %v", name, err)
		}
		got := c.Describe()
		golden := filepath.Join("testdata", "golden", strings.TrimSuffix(name, filepath.Ext(name))+".describe")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatalf("writing golden: %v", err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s: compiled form differs from golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// Describe renders the compiled form as stable text — one schedule event
// per line, then the segment timeline — what the golden files hold.
func (c *Compiled) Describe() string {
	out := fmt.Sprintf("trace %s: %d samples, %v, %d events, %d segments\n",
		c.Trace.Name, len(c.Trace.Samples), c.Trace.Duration(), len(c.Schedule.Events), len(c.Segments))
	for _, ev := range c.Schedule.Events {
		out += "  event " + ev.String() + "\n"
	}
	for _, s := range c.Segments {
		out += fmt.Sprintf("  segment %v-%v %s mean %v\n", s.Start, s.End, s.Kind, s.MeanRate)
	}
	return out
}
