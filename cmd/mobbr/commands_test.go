package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"mobbr/internal/obs"
)

// call dispatches args and returns the exit status and both outputs.
func call(args ...string) (status int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	status = dispatch(args, &out, &errOut)
	return status, out.String(), errOut.String()
}

// expect dispatches args and fails unless the exit status is want and
// stdout and stderr contain the given fragments.
func expect(t *testing.T, want int, outHas, errHas []string, args ...string) (stdout, stderr string) {
	t.Helper()
	status, stdout, stderr := call(args...)
	if status != want {
		t.Fatalf("%q: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, status, want, stdout, stderr)
	}
	for _, s := range outHas {
		if !strings.Contains(stdout, s) {
			t.Errorf("%q: stdout lacks %q:\n%s", args, s, stdout)
		}
	}
	for _, s := range errHas {
		if !strings.Contains(stderr, s) {
			t.Errorf("%q: stderr lacks %q:\n%s", args, s, stderr)
		}
	}
	return stdout, stderr
}

var wallTime = regexp.MustCompile(`\(wall time [^)]*\)\n`)

// TestGridAndDiff drives grid on Figure 4's six points at 100 ms, on one
// worker except where -j is the subject: journal, archive, rollup and
// progress, a byte-identical resume, a forced-stride perturbation, the
// trace experiment, telemetry and its resume, and outputs that cannot be
// written; then diff over the archives it wrote; then each usage error.
func TestGridAndDiff(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "fig4.jsonl")
	base, forced := filepath.Join(dir, "base"), filepath.Join(dir, "forced")
	fig4 := []string{"grid", "-exp", "fig4", "-dur", "100ms", "-seeds", "1", "-j", "1"}

	expect(t, 0, []string{"fig4       ", "recovery   ", "calibrate  ", "trace      "}, nil, "grid", "-list")

	first, progress := expect(t, 0,
		[]string{"== fig4: ", "Low-End pacing-on", "== rollup fig4: 6 points, 3 cells (seeds=1 dur=100ms)", "pixel4/low/bbr/ethernet"},
		[]string{"progress: fig4 done 6/6 (0 failed)"},
		append(fig4, "-journal", journal, "-archive", base, "-rollup", "-progress")...)
	if strings.Count(progress, "\n") != 1 {
		t.Errorf("progress wrote more than its summary line:\n%q", progress)
	}
	if _, err := os.Stat(filepath.Join(base, "fig4", "points", "005.json")); err != nil {
		t.Errorf("archive lacks the sixth point: %v", err)
	}
	resumed, _ := expect(t, 0, nil, []string{"progress: fig4 done 6/6 (0 failed)"},
		append(fig4, "-journal", journal, "-archive", base, "-rollup", "-resume", "-progress")...)
	if a, b := wallTime.ReplaceAllString(first, ""), wallTime.ReplaceAllString(resumed, ""); a != b {
		t.Errorf("resumed tables differ from the first run's:\n%s\nvs\n%s", a, b)
	}
	expect(t, 0, []string{"== fig4: "}, nil, append(fig4, "-force-stride", "50", "-archive", forced)...)
	traced := filepath.Join(dir, "traced")
	expect(t, 0, []string{"== trace: ", "bbr Low-End"}, nil,
		"grid", "-exp", "trace", "-dur", "100ms", "-seeds", "1", "-j", "1", "-archive", traced)
	observed := slices.Clip(append(fig4, "-metrics", "-profile", "-journal", filepath.Join(dir, "observed.jsonl")))
	expect(t, 0, []string{"== fig4: ", "metrics (Default pacing-off, last seed):", "cycle profile (Default pacing-off, last seed):"}, nil,
		append(observed, "-archive", filepath.Join(dir, "observed"))...)
	// A resumed point has no in-memory run, so there is nothing to print.
	out, _ := expect(t, 0, []string{"== fig4: "}, nil, append(observed, "-resume")...)
	if strings.Contains(out, "metrics (") || strings.Contains(out, "cycle profile (") {
		t.Errorf("a fully resumed grid printed telemetry:\n%s", out)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "observed", "fig4", "points", "000.json")); err != nil ||
		!strings.Contains(string(data), `"digest": {`) || !strings.Contains(string(data), `"max_pending": `) {
		t.Errorf("a metrics run archived no digest or queue depth (err %v):\n%s", err, data)
	}
	if status := dispatch(append(fig4, "-rollup"), failWriter{}, io.Discard); status != 1 {
		t.Errorf("grid -rollup into a failing stdout: exit %d, want 1", status)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ flag, stderr string }{
		{"-journal", "mobbr: repro: journal "},
		{"-archive", "mobbr: obs: writing "},
		{"-trace", "mobbr: writing trace: open "},
	} {
		expect(t, 1, nil, []string{tc.stderr}, append(fig4, tc.flag, filepath.Join(file, "x"))...)
	}

	expect(t, 0, []string{"mobbr diff: 0 experiment(s), 0 cell(s): 0 regressed, 0 improved, skipped [fig4 trace] (present in one archive only)\n"},
		nil, "diff", base, traced)
	// A candidate missing a point leaves it unmatched.
	run, err := obs.LoadRun(filepath.Join(base, "fig4"))
	if err != nil {
		t.Fatal(err)
	}
	run.Manifest.Points--
	if err := obs.WriteRun(filepath.Join(dir, "shrunk", "fig4"), run.Manifest, run.Points[:run.Manifest.Points]); err != nil {
		t.Fatal(err)
	}
	expect(t, 0, []string{"mobbr diff: 1 experiment(s), 3 cell(s): 0 regressed, 0 improved, 1 point(s) unmatched\n"},
		nil, "diff", base, filepath.Join(dir, "shrunk"))
	out, errOut := expect(t, 0, nil, nil, "diff", base, base)
	if out != "" || errOut != "" {
		t.Errorf("self-diff printed stdout %q, stderr %q; want nothing", out, errOut)
	}
	expect(t, 1, []string{"REGRESSED (goodput)", "[spec drift on 2 point(s)]",
		"mobbr diff: 1 experiment(s), 3 cell(s): 2 regressed, 1 improved\n"}, nil, "diff", base, forced)
	out, _ = expect(t, 0, nil, nil, "diff", "-all", "-q", base, base)
	if rows := strings.Count(out, " ok\n"); rows != 3 || strings.Contains(out, "mobbr diff:") {
		t.Errorf("diff -all -q: %d ok rows (want 3) or a summary line:\n%s", rows, out)
	}
	expect(t, 2, nil, []string{"mobbr: obs: "}, "diff", base, filepath.Join(dir, "missing"))
	expect(t, 2, nil, []string{"want 2 argument(s)"}, "diff", base)

	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-exp", "fig4", "-resume"}, 1, "mobbr: -resume needs -journal\n"},
		{[]string{"-journal", journal}, 1, "mobbr: -journal covers one experiment; pick it with -exp\n"},
		{[]string{"-exp", "bogus"}, 1, `mobbr: repro: unknown experiment "bogus"`},
		{[]string{"-exp", "trace", "-trace-file", filepath.Join(dir, "missing.csv")}, 1, "mobbr: mobility: open "},
		{[]string{"-exp", "trace", "-trace-preset", "flying"}, 1, `mobbr: mobility: unknown preset "flying"`},
		{[]string{"-exp", "trace", "-trace-file", longTrace(t)}, 1, `mobbr: mobility: resampling "long" at 100ms yields`},
		{[]string{"-exp", "trace", "-trace-file", csvTrace(t, "one", "0,10000,76,0.0\n"), "-seeds", "1", "-dur", "100ms"}, 1,
			`mobbr: mobility: trace "one" covers no time`},
		{[]string{"-exp", "fig4", "-j", "-1"}, 2, "-j must be at least 0"},
		{[]string{"-exp", "fig4", "-seeds", "0"}, 2, "mobbr: -seeds must be at least 1, got 0\n"},
		{[]string{"-exp", "fig4", "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof")}, 1, "mobbr: open "},
		{[]string{"fig4"}, 2, "want 0 argument(s)"},
	} {
		expect(t, tc.status, nil, []string{tc.stderr}, append([]string{"grid"}, tc.args...)...)
	}
}

// TestChaosCommand explores a two-seed window: both generated specs run
// clean. An empty window is a usage error.
func TestChaosCommand(t *testing.T) {
	expect(t, 0, []string{"chaos: 2 specs clean (seeds 1..2)\n"}, []string{"chaos: 2 specs explored (seeds 1..2), 0 findings"},
		"chaos", "-n", "2")
	expect(t, 2, nil, []string{"mobbr: -n must be at least 1, got 0\n"}, "chaos", "-n", "0")
	expect(t, 2, nil, []string{"want 0 argument(s)"}, "chaos", "extra")
}

// TestFiguresErrors: a trace that cannot load fails the command after the
// paper figures drew, and figures takes no arguments.
func TestFiguresErrors(t *testing.T) {
	expect(t, 1, []string{"═══ Figure 8 "}, []string{"mobbr: mobility: open "},
		"figures", "-dur", "100ms", "-j", "1", "-trace-file", filepath.Join(t.TempDir(), "missing.csv"))
	expect(t, 1, nil, []string{`mobbr: mobility: resampling "long" at 100ms yields`},
		"figures", "-dur", "100ms", "-j", "1", "-trace-file", longTrace(t))
	expect(t, 2, nil, []string{"want 0 argument(s)"}, "figures", "fig2")
	if status := dispatch([]string{"figures", "-dur", "100ms", "-j", "1"}, failWriter{}, io.Discard); status != 1 {
		t.Errorf("figures into a failing stdout: exit %d, want 1", status)
	}
}

// longTrace writes a two-sample dataset trace too long to resample onto
// the replay's tick.
func longTrace(t *testing.T) string {
	return csvTrace(t, "long", "0,10000,76,0\n100000000000,10000,76,0\n")
}

// csvTrace writes a dataset trace named name whose rows follow the
// bundled Irish 4G header.
func csvTrace(t *testing.T, name, rows string) string {
	path := filepath.Join(t.TempDir(), name+".csv")
	data := "timestamp_ms,dl_bitrate_kbps,rtt_ms,loss\n" + rows
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// failWriter fails every write, like a closed pipe.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestRunCommand drives run's spec replay from a file, stdin and a
// malformed spec, an app workload, a CC mix with the profile and metrics
// printed, the interval series and each bad token.
func TestRunCommand(t *testing.T) {
	dir := t.TempDir()
	spec := `{"device":"pixel4","cpu":"low","cc":"cubic","conns":2,"duration":"200ms","network":"ethernet","seed":3}`
	specFile := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, _ := expect(t, 0, []string{" cubic conns=2 ", ", 1×200ms runs\n  goodput "}, nil, "-run-spec", "@"+specFile)
	// A replayed spec takes run's path, so -seeds and the telemetry flags
	// apply to it.
	expect(t, 0, []string{", 2×200ms runs\n", "  goodput ", `{"t_ns":`, "metrics (last run):"}, nil,
		"-run-spec", "@"+specFile, "-seeds", "2", "-trace", "-", "-metrics")

	stdin, err := os.Open(specFile)
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	saved := os.Stdin
	os.Stdin = stdin
	fromStdin, _ := expect(t, 0, nil, nil, "-run-spec", "-")
	os.Stdin = saved
	if fromStdin != fromFile {
		t.Errorf("spec from stdin reports\n%s\nspec from a file\n%s", fromStdin, fromFile)
	}
	expect(t, 1, nil, []string{"mobbr: core: decoding spec: "}, "-run-spec", `{"cc":`)
	expect(t, 1, nil, []string{"mobbr: reading spec: open "}, "-run-spec", "@"+filepath.Join(dir, "missing.json"))
	expect(t, 1, nil, []string{"invariant check failed ", "\nrepro: go run ./cmd/mobbr -run-spec "}, "-run-spec",
		`{"device":"pixel4","cpu":"low","cc":"cubic","conns":1,"duration":"150ms","network":"ethernet","check":true,"inject":{"kind":"corrupt-inflight","at":"75ms"}}`)

	expect(t, 0, []string{"  app stream ", "  rebuffer ", "  latency "}, nil,
		"-app", "stream", "-dur", "300ms", "-ladder", "1Mbps, 2Mbps", "-chunk", "100ms", "-startup", "2")
	expect(t, 0, []string{"  app reqrep ", " ops  (1 canceled)\n"}, nil,
		"-app", "reqrep", "-dur", "300ms", "-req-size", "1MB", "-resp-size", "8KB", "-think", "5ms", "-down-rate", "50Mbps")
	expect(t, 0, []string{"1×200ms runs\n", "  expected tx     100.0 Mbps"}, nil,
		"-fixed-rate", "100Mbps", "-sndbuf", "64KB", "-tc-rate", "200Mbps", "-dur", "200ms")
	expect(t, 0, []string{"2×100ms runs\n", " Mbps  (±"}, nil, "-seeds", "2", "-dur", "100ms")
	expect(t, 0, []string{"bbr,cubic conns=2", "  jain index ", "  per-conn ", "cycle profile (last run):",
		"metrics (last run):", "engine self-metrics (last run):"}, nil,
		"-cc", "bbr,cubic", "-conns", "2", "-dur", "200ms", "-profile", "-metrics")

	// Device, config and network tokens are case-insensitive, and lte and
	// mmwave name the cellular networks.
	for _, tc := range []struct {
		args []string
		spec string
	}{
		{[]string{"-device", "Pixel6", "-config", "HIGH"}, "Pixel 6/High-End bbr conns=1 net=ethernet, "},
		{[]string{"-network", "lte"}, "Pixel 4/Low-End bbr conns=1 net=cellular, "},
		{[]string{"-network", "mmwave"}, "Pixel 4/Low-End bbr conns=1 net=5g, "},
	} {
		expect(t, 0, []string{tc.spec}, nil, append(tc.args, "-dur", "100ms")...)
	}

	plain, _ := expect(t, 0, nil, nil, "-dur", "300ms")
	withSeries, _ := expect(t, 0, []string{"interval series (CSV):\nstart_s,end_s,"}, nil, "-dur", "300ms", "-interval", "100ms")
	if series, report, _ := strings.Cut(withSeries, "\n\n"); strings.Count(series, "\n") != 4 || report != plain {
		t.Errorf("-interval printed\n%s\nwant three intervals, then the report a run without it prints:\n%s", withSeries, plain)
	}

	for _, flag := range []string{"-interval", "-profile", "-metrics"} {
		args := []string{"-dur", "300ms", flag}
		if flag == "-interval" {
			args = append(args, "100ms")
		}
		if status := dispatch(args, failWriter{}, io.Discard); status != 1 {
			t.Errorf("%s into a failing stdout: exit %d, want 1", flag, status)
		}
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		expect(t, 1, nil, []string{"mobbr: writing trace: write /dev/full: no space left on device"}, "-dur", "100ms", "-trace", "/dev/full")
	}
	// Only one CPU profile can run in a process.
	if err := pprof.StartCPUProfile(io.Discard); err == nil {
		expect(t, 1, nil, []string{"mobbr: cpuprofile: "}, "-dur", "100ms", "-cpuprofile", filepath.Join(dir, "cpu.pprof"))
		pprof.StopCPUProfile()
	}
	expect(t, 1, nil, []string{"mobbr: writing trace: open "}, "-dur", "100ms", "-trace", filepath.Join(dir, "missing", "t.jsonl"))
	expect(t, 1, nil, []string{"mobbr: writing folded stacks: open "}, "-dur", "100ms", "-folded", filepath.Join(dir, "missing", "f.txt"))
	expect(t, 0, []string{`{"t_ns":`, "  goodput "}, []string{"mobbr: memprofile: open "},
		"-dur", "100ms", "-trace", "-", "-memprofile", filepath.Join(dir, "missing", "mem.pprof"))
	folded := filepath.Join(dir, "folded.txt")
	expect(t, 0, nil, nil, "-dur", "100ms", "-folded", folded)
	if data, err := os.ReadFile(folded); err != nil || !bytes.Contains(data, []byte(";pacing_timer ")) {
		t.Errorf("folded stacks (err %v):\n%s", err, data)
	}

	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-sndbuf", "12XB"}, `invalid value "12XB" for flag -sndbuf: units: bad data size`},
		{[]string{"-fixed-rate", "fast"}, `invalid value "fast" for flag -fixed-rate: units: `},
		{[]string{"-ladder", "1Mbps,x"}, `invalid value "1Mbps,x" for flag -ladder: rung "x": `},
	} {
		expect(t, 2, nil, []string{tc.stderr}, tc.args...)
	}
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-device", "nokia"}, `mobbr: unknown device "nokia"`},
		{[]string{"-config", "turbo"}, `mobbr: unknown CPU config "turbo"`},
		{[]string{"-network", "dsl"}, `mobbr: unknown network "dsl"`},
		{[]string{"-pacing", "maybe"}, "mobbr: pacing must be auto, on or off"},
	} {
		expect(t, 1, nil, []string{tc.stderr}, tc.args...)
	}
	expect(t, 2, nil, []string{"flag provided but not defined: -shards"}, "-shards", "2")
	expect(t, 2, nil, []string{"mobbr: -dur must be positive, got 0s\n"}, "-dur", "0")
	expect(t, 2, nil, []string{`mobbr: unknown command "bogus"`}, "bogus")
}

// TestFailedRunKeepsTrace replays the chaos corpus's corrupt-inflight
// failure with a trace: the run exits 1 and still writes its event log,
// which holds the checker's violation events.
func TestFailedRunKeepsTrace(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "chaos", "testdata", "corpus", "violation-inflight-counter-seed0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	expect(t, 1, nil, []string{"invariant check failed "}, "-run-spec", string(entry.Spec), "-trace", trace)
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte(`"kind":"violation"`)) {
		t.Errorf("the failed run's trace holds no violation event:\n%s", got)
	}
	// A trace that cannot be written is reported beside the run's failure.
	expect(t, 1, nil, []string{"mobbr: writing trace: open ", "invariant check failed "},
		"-run-spec", string(entry.Spec), "-trace", filepath.Join(t.TempDir(), "missing", "trace.jsonl"))
}
