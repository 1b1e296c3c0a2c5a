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

// TestParallelMatchesSerial is the tentpole's determinism gate: every
// experiment's report must be deep-equal at -j 1 and -j 8. Simulations are
// per-run deterministic, so fanning points across goroutines must not
// change a single measured value.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment grid twice")
	}
	dur := 300 * time.Millisecond
	const seeds = 1
	for _, e := range All() {
		serial := runGrid(t, e, RunOpts{Dur: dur, Seeds: seeds, Workers: 1})
		par := runGrid(t, e, RunOpts{Dur: dur, Seeds: seeds, Workers: 8})
		if !reflect.DeepEqual(stripSample(serial), stripSample(par)) {
			t.Errorf("%s: rows differ between -j 1 and -j 8", e.ID)
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i].Sample.Report, par[i].Sample.Report) {
				t.Errorf("%s point %d: sample report differs between -j 1 and -j 8", e.ID, i)
			}
		}
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

// TestParallelRecoveryMatchesSerial covers the recovery grid (interval-series
// metric, checker armed) the same way.
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the recovery grid twice")
	}
	e := Recovery()
	e.Points = e.Points[:3] // one CPU config's worth is plenty
	serial := runGrid(t, e, RunOpts{Seeds: 1, Workers: 1})
	par := runGrid(t, e, RunOpts{Seeds: 1, Workers: 8})
	if !reflect.DeepEqual(stripSample(serial), stripSample(par)) {
		t.Error("recovery rows differ between -j 1 and -j 8")
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
