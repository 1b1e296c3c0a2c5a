package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// inTempDir runs the rest of the test from a scratch directory, so that what
// the benchmark leaves in .bench_build does not land in the package directory.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

// bench runs the command in-process and returns its standard output.
func bench(t *testing.T, wantCode int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != wantCode {
		t.Fatalf("bench %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, wantCode, &stdout, &stderr)
	}
	return stdout.String()
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTables pins BENCHMARK.json to the tables the code emits
// from: the same workloads with the same rationale, the same metric names,
// units, directions and bounds.
func TestContractMatchesTables(t *testing.T) {
	c := loadContract(t)
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(c.Command, want) {
		t.Errorf("command = %v, want %v", c.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(c.Paths, want) {
		t.Errorf("paths = %v, want %v", c.Paths, want)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := c.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %q: %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in defs.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, defs.go has %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, d.Name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in defs.go, want equal and in (0, 0.25]", kind, d.Name, g.Bound, d.Bound)
			case !bounded && (g.Bound != nil || d.Bound != 0):
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, gated(), true)
	check("per_layer", c.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	if d, ok := def("setup_s"); !ok || d.Ungated || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s = %+v, the contract wants it gated, in s, lower better", d)
	}
	seen := map[string]bool{}
	for _, d := range allDefs {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func loadResultFile(t *testing.T, path string) resultFile {
	t.Helper()
	f, err := loadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	return *f
}

func checkMetric(t *testing.T, where string, d metricDef, m metric) {
	t.Helper()
	if m.Unit != d.Unit {
		t.Errorf("%s %s: unit %q, want %q", where, d.Name, m.Unit, d.Unit)
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		t.Errorf("%s %s: value %v", where, d.Name, m.Value)
	}
}

// TestQuickEndToEnd runs every workload at smoke size and checks that each
// emits every end-to-end metric of the contract once, with its unit, finite
// and never zero, and that no operation fails.
func TestQuickEndToEnd(t *testing.T) {
	inTempDir(t)
	bench(t, 0, "-quick", "-seed", "5", "-out", "run.json")
	file := loadResultFile(t, "run.json")
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(file.Workloads), len(workloads))
	}
	for i, r := range file.Workloads {
		if r.Name != workloads[i].Name {
			t.Errorf("result %d is %s, want %s", i, r.Name, workloads[i].Name)
		}
		if r.Failed != 0 || r.Attempted == 0 || r.FailedShare != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", r.Name, r.Attempted, r.Failed, r.Failures)
		}
		if r.SimDigest == "" || r.Units != 2 {
			t.Errorf("%s: sim_digest %q, units %d, want a digest and 2 units", r.Name, r.SimDigest, r.Units)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", r.Name, len(r.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := r.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: %s missing", r.Name, d.Name)
				continue
			}
			checkMetric(t, r.Name, d, m)
			if m.Value <= 0 {
				t.Errorf("%s %s: value %v, an end-to-end metric is never zero", r.Name, d.Name, m.Value)
			}
		}
	}

	// A file compared with itself is never better or worse. Two smoke-size
	// units can differ by more than a bound, which is unresolved, not same.
	table := bench(t, 0, "-compare", "run.json", "run.json")
	if strings.Contains(table, "YES") || strings.Contains(table, "worse") || strings.Contains(table, "better") {
		t.Errorf("self-comparison finds a difference:\n%s", table)
	}
	if n := strings.Count(table, "same") + strings.Count(table, "unresolved"); n != len(workloads)*len(endToEnd) {
		t.Errorf("self-comparison has %d verdicts, want %d:\n%s", n, len(workloads)*len(endToEnd), table)
	}
}

// TestQuickTraced runs the layer drivers and every workload's traced pass at
// smoke size: every per-layer name is emitted exactly once per workload
// (the drivers' in the layers entry, the rest in the workload's own), the
// host-time shares sum to 1, and the spans file parses line by line.
func TestQuickTraced(t *testing.T) {
	inTempDir(t)
	bench(t, 0, "-quick", "-trace", "1", "-out", "layers.json", "-spans", "spans.jsonl")
	file := loadResultFile(t, "layers.json")
	if len(file.Workloads) != len(workloads)+1 || file.Workloads[0].Name != "layers" {
		t.Fatalf("want a layers entry and %d workloads, got %d entries", len(workloads), len(file.Workloads))
	}
	drivers := file.Workloads[0]
	if drivers.Failed != 0 {
		t.Errorf("layers: %d failed: %v", drivers.Failed, drivers.Failures)
	}
	for _, r := range file.Workloads[1:] {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", r.Name, r.Attempted, r.Failed, r.Failures)
		}
		shares := 0.0
		for _, d := range perLayer {
			m, own := r.Metrics[d.Name]
			dm, shared := drivers.Metrics[d.Name]
			switch {
			case own && shared:
				t.Errorf("%s: %s emitted twice", r.Name, d.Name)
			case !own && !shared:
				t.Errorf("%s: %s missing", r.Name, d.Name)
			case shared:
				m = dm
			}
			checkMetric(t, r.Name, d, m)
			if strings.HasPrefix(d.Name, "host.share_") {
				shares += m.Value
			}
		}
		if len(r.Metrics)+len(drivers.Metrics) != len(perLayer) {
			t.Errorf("%s: %d+%d metrics, want the %d per-layer ones", r.Name, len(r.Metrics), len(drivers.Metrics), len(perLayer))
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: host.share_* sum to %v, want 1", r.Name, shares)
		}
	}
	grid := file.Workloads[len(file.Workloads)-1]
	for _, name := range []string{"repro.run_grid_s", "repro.point_wall_ms_p50", "obs.write_run_s", "obs.load_archive_s", "repro.paper_mape_pct"} {
		if grid.Metrics[name].Value <= 0 {
			t.Errorf("grid_paper: %s = %v, want above zero", name, grid.Metrics[name].Value)
		}
	}

	f, err := os.Open("spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	names := map[string]int{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("spans.jsonl: %v in %q", err, sc.Text())
		}
		if s.EndNs < s.StartNs || s.Workload == "" {
			t.Errorf("span %+v: ends before it starts, or has no workload", s)
		}
		if _, ok := byID[s.Parent]; s.Parent != 0 && !ok {
			t.Errorf("span %+v: parent is not an earlier span", s)
		}
		byID[s.ID] = s
		names[s.Name]++
	}
	for _, name := range []string{"workload", "unit", "core.Run", "repro.run_grid", "point", "obs.diff"} {
		if names[name] == 0 {
			t.Errorf("no %q span in spans.jsonl (have %v)", name, names)
		}
	}
}

// TestDriverLine checks what the gate reads: with one workload selected, the
// last line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics, and the metrics are exactly the
// gated end-to-end names at --trace 0 and exactly the per-layer names at
// --trace 1.
func TestDriverLine(t *testing.T) {
	inTempDir(t)
	for trace, defs := range map[string][]metricDef{"0": gated(), "1": perLayer} {
		out := bench(t, 0, "-quick", "--workload", "churn_10k", "--seed", "9", "--seconds", "1", "--trace", trace)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("--trace %s: last line is not JSON: %v", trace, err)
		}
		var keys []string
		for k := range line {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("--trace %s: keys %v, want %v", trace, keys, want)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("--trace %s: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := metrics[d.Name]
			if !ok {
				t.Errorf("--trace %s: %s missing", trace, d.Name)
				continue
			}
			if len(m) != 2 || m["unit"] != d.Unit {
				t.Errorf("--trace %s %s: %v, want a value and unit %q", trace, d.Name, m, d.Unit)
			}
			if _, ok := m["value"].(float64); !ok {
				t.Errorf("--trace %s %s: value %v is not a number", trace, d.Name, m["value"])
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("--trace %s: correct %s, failed %s", trace, line["correct"], line["failed"])
		}
	}
}

func TestBadFlags(t *testing.T) {
	inTempDir(t)
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
		{"-compare", "missing-a.json", "missing-b.json"},
		{"stray"},
		{"-no-such-flag"},
	} {
		bench(t, 2, args...)
	}
	bench(t, 0, "-quick", "-layers", "-seed", "2", "-out", "layers.json")
}

// Synthetic profile.proto encoding, enough of it to exercise the reader.

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = pbVarint(pbVarint(b, uint64(num)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func pbPacked(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = pbVarint(b, v)
	}
	return b
}

func TestParseSyntheticProfile(t *testing.T) {
	funcs := []string{
		"mobbr/internal/sim.(*Engine).Step",           // function 1
		"mobbr/internal/tcp.(*Conn).processAck",       // 2
		"math/rand.(*Rand).Float64",                   // 3
		"mobbr/internal/netem.(*Pipe).Enqueue",        // 4
		"runtime.mallocgc",                            // 5
		"runtime.gcBgMarkWorker",                      // 6
		"runtime.scanobject",                          // 7
		"mobbr/internal/cc/bbr.(*BBR).OnAck",          // 8
		"runtime.gopark",                              // 9
		"runtime.futex",                               // 10
		"slices.SortFunc[go.shape.[]mobbr/x.T,mobbr]", // 11
		"main.gridPaper",                              // 12
	}
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	var p []byte
	// sample_type entries and a period, which the reader must skip.
	p = pbBytes(p, 1, pbInt(pbInt(nil, 1, 1), 2, 2))
	p = pbBytes(p, 1, pbInt(pbInt(nil, 1, 3), 2, 4))
	p = pbInt(p, 12, 10_000_000)
	sample := func(ns uint64, packed bool, locs ...uint64) {
		var s []byte
		if packed {
			s = pbBytes(s, 1, pbPacked(locs...))
			s = pbBytes(s, 2, pbPacked(1, ns))
		} else {
			for _, l := range locs {
				s = pbInt(s, 1, l)
			}
			s = pbInt(pbInt(s, 2, 1), 2, ns)
		}
		p = pbBytes(p, 2, s)
	}
	// Location i holds function i, except 20, which holds bbr.OnAck inlined
	// into tcp.processAck (innermost line first).
	sample(40, true, 1)         // sim leaf
	sample(20, false, 3, 4, 1)  // math/rand under netem → netem
	sample(10, true, 5, 2, 1)   // runtime.mallocgc under tcp → runtime_other
	sample(10, true, 7, 6)      // GC worker → runtime_gc
	sample(10, false, 10, 9, 1) // futex under gopark → runtime_sched
	sample(5, true, 20, 1)      // inlined bbr leaf → cc
	sample(5, true, 11, 12)     // generic stdlib leaf under main → runtime_other
	for i := range funcs {
		id := uint64(i + 1)
		p = pbBytes(p, 4, pbBytes(pbInt(nil, 1, id), 4, pbInt(nil, 1, id)))
		p = pbBytes(p, 5, pbInt(pbInt(nil, 1, id), 2, uint64(5+i)))
	}
	p = pbBytes(p, 4, pbBytes(pbBytes(pbInt(nil, 1, 20), 4, pbInt(nil, 1, 8)), 4, pbInt(nil, 1, 2)))
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("%d samples, want 7", len(samples))
	}
	if got, want := samples[5].stack, []string{funcs[7], funcs[1], funcs[0]}; !reflect.DeepEqual(got, want) {
		t.Errorf("inlined stack = %v, want %v", got, want)
	}
	if got := samples[1]; got.value != 20 || !reflect.DeepEqual(got.stack, []string{funcs[2], funcs[3], funcs[0]}) {
		t.Errorf("unpacked sample = %+v", got)
	}
	shares := hostShares(samples)
	want := map[string]float64{"sim": 0.40, "netem": 0.20, "runtime_other": 0.15,
		"runtime_gc": 0.10, "runtime_sched": 0.10, "cc": 0.05}
	sum := 0.0
	for _, b := range hostBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", b, shares[b], want[b])
		}
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}

	// Damaged input is an error, never a panic.
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted input that is not gzip")
	}
	var cut bytes.Buffer
	zw = gzip.NewWriter(&cut)
	zw.Write(p[:len(p)-3])
	zw.Close()
	if _, err := parseProfile(cut.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
	if got := hostShares(nil); got["runtime_other"] != 1 {
		t.Errorf("empty profile: %v, want everything in runtime_other", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_ms_per_sim_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	m := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3, N: 9} }
	for _, tc := range []struct {
		d    metricDef
		a, b metric
		want string
	}{
		{lower, m(100, 99, 101), m(100.5, 99, 102), "same"},
		{lower, m(100, 99, 101), m(93, 92, 94), "same"},
		{lower, m(100, 99, 101), m(115, 114, 116), "worse"},
		{lower, m(100, 99, 101), m(85, 84, 86), "better"},
		{lower, m(100, 60, 140), m(105, 70, 150), "unresolved"},
		{lower, m(100, 60, 140), m(40, 30, 50), "better"},
		{higher, m(100, 99, 101), m(85, 84, 86), "worse"},
		{higher, m(100, 99, 101), m(120, 119, 121), "better"},
		{lower, metric{Value: 0}, m(1, 1, 1), "unresolved"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", tc.d.Better, tc.a, tc.b, got, tc.want)
		}
	}
}
