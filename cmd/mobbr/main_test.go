package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/repro"
	"mobbr/internal/sim"
	"mobbr/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestHelpGolden pins every subcommand's -h text: its flags, their defaults
// and help. Regenerate with -update after changing a flag on purpose.
func TestHelpGolden(t *testing.T) {
	for _, name := range []string{"run", "grid", "diff", "figures", "chaos"} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := dispatch([]string{name, "-h"}, &stdout, &stderr); status != 0 {
				t.Fatalf("%s -h: exit %d, want 0", name, status)
			}
			golden := filepath.Join("testdata", "help_"+name+".golden")
			if *update {
				if err := os.WriteFile(golden, stderr.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if stderr.String() != string(want) {
				t.Errorf("%s -h differs from %s:\n%s", name, golden, stderr.String())
			}
		})
	}
}

// TestReproLineRuns: the repro line a failed point prints must run as
// written — strip the `go run` prefix, split it as a shell would and
// dispatch it: exit 0 with the spec's report.
func TestReproLineRuns(t *testing.T) {
	line := core.ReproLine(core.Spec{CC: "cubic", Conns: 2, Duration: 300 * time.Millisecond, Seed: 4})
	rest, ok := strings.CutPrefix(line, "go run ./cmd/mobbr ")
	if !ok {
		t.Fatalf("repro line does not invoke ./cmd/mobbr: %s", line)
	}
	args := shellSplit(t, rest)
	spec, err := core.DecodeSpec([]byte(args[len(args)-1]))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if status := dispatch(args, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr.String())
	}
	if want := fmt.Sprintf("%s, 1×%v runs\n  goodput ", spec, spec.Duration); !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("stdout lacks the report header %q:\n%s", want, stdout.String())
	}
}

// shellSplit splits s into words at spaces outside single quotes, the only
// quoting a repro line uses.
func shellSplit(t *testing.T, s string) []string {
	var words []string
	var cur strings.Builder
	inWord, quoted := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case r == ' ' && !quoted:
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
			}
			inWord = false
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if quoted {
		t.Fatalf("unbalanced quote in %q", s)
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// TestTraceJSONL: a short traced run writes a non-empty JSONL event log in
// which every line is an object with a kind and t_ns never decreases.
func TestTraceJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"run", "-cc", "bbr", "-config", "low", "-conns", "4", "-dur", "1s", "-trace", path}
	if status := dispatch(args, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d, stderr:\n%s", status, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lines, prev := 0, int64(-1)
	for sc.Scan() {
		lines++
		var ev struct {
			Kind string `json:"kind"`
			TNs  *int64 `json:"t_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v: %s", lines, err, sc.Text())
		}
		if ev.Kind == "" || ev.TNs == nil {
			t.Fatalf("line %d lacks kind or t_ns: %s", lines, sc.Text())
		}
		if *ev.TNs < prev {
			t.Fatalf("line %d: t_ns %d < previous %d", lines, *ev.TNs, prev)
		}
		prev = *ev.TNs
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty trace")
	}
}

// TestTraceDropWarns: a trace cut short by the bus cap says so on stderr;
// run and grid share this writer, so both warn.
func TestTraceDropWarns(t *testing.T) {
	bus := telemetry.NewBus(sim.New(1), 10)
	for i := 0; i < 25; i++ {
		bus.Emit(telemetry.Event{Kind: telemetry.KindTCPState})
	}
	sh := &shared{traceTo: filepath.Join(t.TempDir(), "trace.jsonl")}
	var stdout, stderr bytes.Buffer
	if err := sh.writeTelemetry(&core.Result{Events: bus}, "last run", &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if want := "mobbr: trace dropped 15 events past the buffer cap\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	data, err := os.ReadFile(sh.traceTo)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 10 {
		t.Errorf("trace holds %d events, want the cap of 10", n)
	}
}

// TestIntervalNeedsOneSeed: -interval prints one run's series, so asking
// for it over several seeds is a usage error rather than a silent no-op.
func TestIntervalNeedsOneSeed(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := dispatch([]string{"-interval", "1s", "-seeds", "3"}, &stdout, &stderr); status != 2 {
		t.Errorf("exit %d, want 2", status)
	}
	if !strings.Contains(stderr.String(), "-interval") || stdout.Len() > 0 {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestIntervalTooFineFails: an interval that would keep more than a million
// reports is a spec error (exit 1), not an out-of-memory crash.
func TestIntervalTooFineFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-cc", "bbr", "-config", "low", "-conns", "1", "-dur", "300ms", "-interval", "1ns"}
	if status := dispatch(args, &stdout, &stderr); status != 1 {
		t.Errorf("exit %d, want 1", status)
	}
	if want := "core: interval 1ns over duration 300ms gives 300000000 reports, more than 1000000"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
	}
}

// TestProfilesSurviveFailure: a run that fails after the profiles started
// still flushes them, since exit statuses return to main instead of
// calling os.Exit.
func TestProfilesSurviveFailure(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	if status := dispatch([]string{"-cpuprofile", cpu, "-memprofile", mem, "-device", "bogus"}, &stdout, &stderr); status != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", status, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, err := io.ReadAll(zr)
		f.Close()
		if err != nil || len(body) == 0 {
			t.Errorf("%s: %d bytes after gunzip, err %v", path, len(body), err)
		}
	}
}

// TestFailuresAreLoud: containment is the runner's only behaviour, so a
// failed point must be reported where a user sees it — class, message and
// the repro line on stderr, exit status 1 — with or without -journal, while
// the healthy point's row still prints.
func TestFailuresAreLoud(t *testing.T) {
	e := repro.Experiment{ID: "loud", Title: "one healthy point, one that panics", Points: []repro.Point{
		{Label: "healthy", Spec: core.Spec{CC: "cubic", Conns: 1}},
		{Label: "panics", Spec: core.Spec{CC: "cubic", Conns: 1,
			Inject: core.Inject{Kind: core.InjectPanic, At: 100 * time.Millisecond}}},
	}}
	g := gridRun{opts: repro.RunOpts{Dur: 300 * time.Millisecond, Seeds: 1, Workers: 1}}
	var stdout, stderr bytes.Buffer
	if status := g.runAll([]repro.Experiment{e}, &stdout, &stderr); status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
	for _, want := range []string{
		"FAILED loud/panics: panic: panic: core: injected panic at 100ms\n",
		"  repro: go run ./cmd/mobbr -run-spec '{",
		"1 point(s) failed\n",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	if strings.Contains(stderr.String(), "goroutine ") {
		t.Errorf("stderr carries a stack, want the first message line only:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "FAILED panic") || !strings.Contains(stdout.String(), "healthy  ") {
		t.Errorf("table lacks the FAILED row or the healthy one:\n%s", stdout.String())
	}
}

func TestCheckParallelism(t *testing.T) {
	cases := []struct {
		name    string
		jobs    int
		wantErr string
	}{
		{name: "serial default", jobs: 0},
		{name: "serial explicit jobs", jobs: 4},
		{name: "negative jobs", jobs: -1, wantErr: "-j must be at least 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkParallelism(tc.jobs)
			if tc.wantErr == "" && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestFiguresDraws runs the figures command end to end at a short
// duration: the three paper figures and the trace replay all draw, and a
// negative -j is a usage error, as it is for grid.
func TestFiguresDraws(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := dispatch([]string{"figures", "-dur", "100ms", "-j", "1"}, &stdout, &stderr); status != 0 {
		t.Fatalf("figures: exit %d, want 0\n%s", status, stderr.String())
	}
	for _, heading := range []string{
		"═══ Figure 2a — Pixel 4 Low-End, Ethernet ═══",
		"═══ Figure 4 — BBR pacing on/off, 20 conns ═══",
		"═══ Figure 8 — pacing-stride sweep, 20 conns ═══",
		"═══ Trace replay — ",
	} {
		if !strings.Contains(stdout.String(), heading) {
			t.Errorf("figures output lacks %q:\n%s", heading, stdout.String())
		}
	}
	stdout.Reset()
	stderr.Reset()
	if status := dispatch([]string{"figures", "-j", "-3"}, &stdout, &stderr); status != 2 {
		t.Errorf("figures -j -3: exit %d, want 2", status)
	}
	if !strings.Contains(stderr.String(), "-j must be at least 0") {
		t.Errorf("figures -j -3 stderr = %q", stderr.String())
	}
	for _, dur := range []string{"0", "-1s"} {
		stdout.Reset()
		stderr.Reset()
		if status := dispatch([]string{"figures", "-dur", dur}, &stdout, &stderr); status != 2 {
			t.Errorf("figures -dur %s: exit %d, want 2", dur, status)
		}
		if !strings.HasPrefix(stderr.String(), "mobbr: -dur must be positive, got ") {
			t.Errorf("figures -dur %s stderr = %q", dur, stderr.String())
		}
	}
}
