package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/repro"
)

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
	g := grid{opts: repro.RunOpts{Dur: 300 * time.Millisecond, Seeds: 1, Workers: 1}}
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
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name     string
		shards   int
		jobs     int
		wantErr  string
		wantWarn bool
	}{
		{name: "serial default", shards: 1, jobs: 0},
		{name: "serial explicit jobs", shards: 1, jobs: 4},
		{name: "zero shards", shards: 0, jobs: 1, wantErr: "-shards must be at least 1"},
		{name: "negative shards", shards: -2, jobs: 1, wantErr: "-shards must be at least 1"},
		{name: "negative jobs", shards: 2, jobs: -1, wantErr: "-j must be at least 0"},
		// 2 shards on a single worker fits any multi-core box.
		{name: "sharded one worker", shards: 2, jobs: 1, wantWarn: procs < 2},
		// shards × effective workers beyond GOMAXPROCS must warn: jobs=0
		// means one worker per CPU, so any shards > 1 oversubscribes.
		{name: "sharded default jobs oversubscribes", shards: 2, jobs: 0, wantWarn: true},
		{name: "sharded explicit oversubscription", shards: 4, jobs: procs, wantWarn: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warn, err := checkParallelism(tc.shards, tc.jobs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if (warn != "") != tc.wantWarn {
				t.Errorf("warn = %q, wantWarn = %v (GOMAXPROCS %d)", warn, tc.wantWarn, procs)
			}
		})
	}
}
