package repro

import (
	"strings"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/iperf"
	"mobbr/internal/units"
)

const recoverySeeds = 2

// runRecoveryOnce memoises one full experiment run for the package tests.
var recoveryRows []Row

func runRecoveryOnce(t *testing.T) []Row {
	t.Helper()
	if recoveryRows == nil {
		recoveryRows = runGrid(t, Recovery(), RunOpts{Seeds: recoverySeeds, Workers: 1})
	}
	return recoveryRows
}

// runGrid runs e through the one runner and requires every point to succeed.
func runGrid(t *testing.T, e Experiment, opts RunOpts) []Row {
	t.Helper()
	rows, err := RunExperimentResilient(e, opts)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	for _, r := range rows {
		if r.Failure != nil {
			t.Fatalf("%s/%s: %s: %s", e.ID, r.Point.Label, r.Failure.Class, r.Failure.Msg)
		}
	}
	return rows
}

// TestRecoveryAllPointsRecover: after both fault patterns the transfer must
// regain 90% of pre-fault goodput before run end, on every CC and CPU
// configuration, for every seed — with the invariant checker armed.
func TestRecoveryAllPointsRecover(t *testing.T) {
	rows := runRecoveryOnce(t)
	if len(rows) != 12 {
		t.Fatalf("expected 12 points, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Recovered != r.Seeds {
			t.Errorf("%s: only %d/%d seeds recovered", r.Point.Label, r.Recovered, r.Seeds)
		}
		if r.GoodputMbps <= 0 {
			t.Errorf("%s: no pre-fault goodput", r.Point.Label)
		}
		if r.RecoveryMs <= 0 {
			t.Errorf("%s: non-positive recovery time %v ms", r.Point.Label, r.RecoveryMs)
		}
	}
}

// TestRecoveryWithinOneRTOOfLinkReturn: the hardened sender (F-RTO undo,
// capped backoff) must resume goodput promptly once the link is back. After a
// 2 s blackout the backed-off RTO is over a second, so recovering inside
// 1000 ms demonstrates the retransmit path is not waiting out stale timers.
func TestRecoveryWithinOneRTOOfLinkReturn(t *testing.T) {
	for _, r := range runRecoveryOnce(t) {
		if r.RecoveryMs > 1000 {
			t.Errorf("%s: recovery took %.0f ms, want within one RTO (<=1000 ms) of link return",
				r.Point.Label, r.RecoveryMs)
		}
	}
}

// TestRecoveryBBRNotFasterThanCubic: the paper's framing — BBR's gains come
// from steady-state pacing, not faster loss recovery. On the Low-End blackout
// cell BBR must not recover faster than Cubic.
func TestRecoveryBBRNotFasterThanCubic(t *testing.T) {
	rows := runRecoveryOnce(t)
	byLabel := map[string]Row{}
	for _, r := range rows {
		byLabel[r.Point.Label] = r
	}
	bbr, ok1 := byLabel["bbr blackout Low-End"]
	cubic, ok2 := byLabel["cubic blackout Low-End"]
	if !ok1 || !ok2 {
		t.Fatalf("missing Low-End blackout cells: %v", byLabel)
	}
	if bbr.RecoveryMs < cubic.RecoveryMs {
		t.Errorf("BBR recovered in %.0f ms, faster than Cubic's %.0f ms on Low-End blackout",
			bbr.RecoveryMs, cubic.RecoveryMs)
	}
}

// TestRecoverySpuriousRTOAfterBlackout: the LTE radio holds (not drops)
// packets during a blackout, so the first post-resume ACK echoes an original
// transmission sent before the RTO — F-RTO must detect and undo it.
func TestRecoverySpuriousRTOAfterBlackout(t *testing.T) {
	for _, r := range runRecoveryOnce(t) {
		if !strings.Contains(r.Point.Label, string(FaultBlackout)) {
			continue
		}
		if r.SpuriousRTOs < 1 {
			t.Errorf("%s: expected at least one F-RTO-detected spurious timeout, got %.1f",
				r.Point.Label, r.SpuriousRTOs)
		}
	}
}

// TestRecoveryDeterministicPerSeed: a point rerun with the same seed must
// produce the identical interval series and recovery time.
func TestRecoveryDeterministicPerSeed(t *testing.T) {
	p := Recovery().Points[0]
	run := func() []iperf.Interval {
		spec := p.Spec
		spec.Seed = 7
		res, err := core.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		return res.Report.Intervals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("interval counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRecoveryTimeCensoring exercises the metric extraction directly.
func TestRecoveryTime(t *testing.T) {
	mk := func(goodputs ...float64) []iperf.Interval {
		ivals := make([]iperf.Interval, len(goodputs))
		for i, g := range goodputs {
			ivals[i] = iperf.Interval{
				Start:   time.Duration(i) * time.Second,
				End:     time.Duration(i+1) * time.Second,
				Goodput: units.Bandwidth(g),
			}
		}
		return ivals
	}
	warmup, faultStart, faultEnd, dur := 1*time.Second, 3*time.Second, 5*time.Second, 10*time.Second

	// Baseline 100 over [1s,3s); dips to 10 during the fault; back at 95
	// (>=90) in the interval ending at 8s → recovery 3s after faultEnd.
	pre, rec, ok := recoveryTime(mk(50, 100, 100, 10, 10, 10, 50, 95, 100, 100),
		warmup, faultStart, faultEnd, dur)
	if !ok || pre != 100 || rec != 3*time.Second {
		t.Errorf("got pre=%v rec=%v ok=%v, want 100/3s/true", pre, rec, ok)
	}

	// Never regains 90%: censored at run end, ok=false.
	pre, rec, ok = recoveryTime(mk(50, 100, 100, 10, 10, 10, 50, 60, 70, 80),
		warmup, faultStart, faultEnd, dur)
	if ok || pre != 100 || rec != dur-faultEnd {
		t.Errorf("got pre=%v rec=%v ok=%v, want 100/5s/false", pre, rec, ok)
	}

	// No interval ends before the fault starts: no baseline, censored.
	pre, rec, ok = recoveryTime(mk(10, 10, 10), warmup, 500*time.Millisecond, time.Second, 3*time.Second)
	if ok || pre != 0 || rec != 2*time.Second {
		t.Errorf("got pre=%v rec=%v ok=%v, want 0/2s/false", pre, rec, ok)
	}
}
