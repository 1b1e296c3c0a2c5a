package repro

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobbr/internal/mobility"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var hits [50]atomic.Int32
		if err := ForEachW(len(hits), workers, func(_, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachSmallestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForEachW(20, workers, func(_, i int) error {
			if i == 3 || i == 17 {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "point 3 failed" {
			t.Fatalf("workers=%d: err = %v, want the smallest-index failure", workers, err)
		}
	}
}

func TestForEachCapturesPanic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForEachW(10, workers, func(_, i int) error {
			if i == 4 {
				panic("boom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "point 4 panicked: boom") {
			t.Fatalf("workers=%d: panic not captured: %v", workers, err)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	if err := ForEachW(0, 4, func(_, _ int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	// Workers=-1 means one per CPU, so the count must be atomic.
	var ran atomic.Int64
	if err := ForEachW(3, -1, func(_, _ int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("workers=-1 ran %d of 3", n)
	}
}

// stripSample clears the per-row field that legitimately differs across
// processes, scheduling and execution strategies: Sample carries wall-clock
// engine self-metrics and the pool's allocation-strategy counters (News,
// per-arena MaxOutstanding, which differ under per-shard arenas). The
// virtual-time Report inside it is checked separately; every measured
// column and the exact engine event count must match to the last bit.
func stripSample(rows []Row) []Row {
	out := make([]Row, len(rows))
	copy(out, rows)
	for i := range out {
		out[i].Sample = nil
	}
	return out
}

// TestParallelMatchesSerial is the scheduler's determinism gate: each grid
// run at -j 1 and at -j 8 must give deep-equal rows, sample reports and churn
// stats. Simulations are per-run deterministic, so fanning points across
// goroutines must not change a single measured value. Every run carries a
// private packet/ACK pool, so under `go test -race` (CI runs it) the pooled
// mobility-trace case also proves pools never cross goroutines.
func TestParallelMatchesSerial(t *testing.T) {
	recovery := func(*testing.T) []Experiment {
		e := Recovery()
		e.Points = e.Points[:3] // one CPU config's worth is plenty
		return []Experiment{e}
	}
	trace := func(t *testing.T) []Experiment {
		tr, err := mobility.Synthesize(mobility.Train, 2*time.Second, mobility.DefaultTick, 7)
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		e, err := NewTraceExperiment(tr)
		if err != nil {
			t.Fatalf("NewTraceExperiment: %v", err)
		}
		return []Experiment{e}
	}
	for _, c := range []struct {
		name  string
		long  bool // skipped under -short
		grids func(*testing.T) []Experiment
		opts  RunOpts
		churn bool // every point must start flows
	}{
		{"paper", true, func(*testing.T) []Experiment { return All() }, RunOpts{Dur: 300 * time.Millisecond, Seeds: 1}, false},
		{"recovery", true, recovery, RunOpts{Seeds: 1}, false},
		{"scale", false, func(*testing.T) []Experiment { return []Experiment{miniScale()} }, RunOpts{Dur: 300 * time.Millisecond, Seeds: 2}, true},
		{"trace", false, trace, RunOpts{Seeds: 2}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("runs its grids twice")
			}
			for _, e := range c.grids(t) {
				serial, par := c.opts, c.opts
				serial.Workers, par.Workers = 1, 8
				s, p := runGrid(t, e, serial), runGrid(t, e, par)
				if !reflect.DeepEqual(stripSample(s), stripSample(p)) {
					t.Errorf("%s: rows differ between -j 1 and -j 8", e.ID)
				}
				for i := range s {
					if !reflect.DeepEqual(s[i].Sample.Report, p[i].Sample.Report) ||
						!reflect.DeepEqual(s[i].Sample.Flows, p[i].Sample.Flows) {
						t.Errorf("%s point %d: sample report or churn stats differ between -j 1 and -j 8", e.ID, i)
					}
					if c.churn && s[i].FlowsStarted == 0 {
						t.Errorf("%s point %d: no flows started", e.ID, i)
					}
				}
			}
		})
	}
}

// TestShardedGridMatchesSerial is the grid-scale differential of the
// sharded engine, which grids no longer offer but core.Spec.Shards still
// selects: every experiment in the registry, run serial and with every
// point's spec asking for two shards, must produce deeply equal rows.
// Points with serial-only features (churn, app workloads, mobility, faults)
// exercise the fallback path and must also match.
func TestShardedGridMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("grid differential is long")
	}
	// A short duration keeps it affordable: every point runs twice.
	opts := RunOpts{Dur: 60 * time.Millisecond, Seeds: 1, Workers: 1}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			serial := runGrid(t, e, opts)
			e.Points = slices.Clone(e.Points)
			for i := range e.Points {
				e.Points[i].Spec.Shards = 2
			}
			s, h := stripSample(serial), stripSample(runGrid(t, e, opts))
			for i := range s {
				h[i].Point.Spec.Shards = 0 // the one input that differs
				if !reflect.DeepEqual(s[i], h[i]) {
					t.Errorf("point %q differs:\nserial:  %+v\nsharded: %+v",
						e.Points[i].Label, s[i], h[i])
				}
			}
		})
	}
}

// TestForEachPanicOnLastIndex: a panic in the final index must not deadlock
// the pool or skip earlier indices (regression guard for off-by-one in the
// work handout).
func TestForEachPanicOnLastIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var hits [7]atomic.Int32
		err := ForEachW(len(hits), workers, func(_, i int) error {
			hits[i].Add(1)
			if i == len(hits)-1 {
				panic("last index")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "point 6 panicked: last index") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestForEachWorkersExceedN: more workers than work items must still run
// every index exactly once and terminate.
func TestForEachWorkersExceedN(t *testing.T) {
	var hits [5]atomic.Int32
	if err := ForEachW(len(hits), 32, func(_, i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}
