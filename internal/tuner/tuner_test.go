package tuner

import (
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
)

func lowEndSpec() core.Spec {
	return core.Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20, Network: core.Ethernet}
}

func fastOpts() Options {
	return Options{Seeds: 1, Duration: 1500 * time.Millisecond}
}

// TestSweepFindsImprovement evaluates the paper's strides 1x, 5x and 10x
// one by one: §6.2 says that on Low-End/20conns a larger stride beats
// stock pacing, which is what gives the search something to find.
func TestSweepFindsImprovement(t *testing.T) {
	o := fastOpts().withDefaults()
	var base, best Trial
	for _, st := range []float64{1, 5, 10} {
		tr, err := evaluate(lowEndSpec(), st, o)
		if err != nil {
			t.Fatal(err)
		}
		if st == 1 {
			base = tr
		}
		if tr.GoodputMbps > best.GoodputMbps {
			best = tr
		}
	}
	if best.Stride == 1 || best.GoodputMbps <= 1.05*base.GoodputMbps {
		t.Errorf("best stride %vx at %.1f Mbit/s, want > 1.05x the 1x %.1f Mbit/s",
			best.Stride, best.GoodputMbps, base.GoodputMbps)
	}
}

// TestSweepAlwaysIncludesBaseline: the search evaluates the stock 1x
// stride first and keeps it as the baseline every score is judged by.
func TestSweepAlwaysIncludesBaseline(t *testing.T) {
	res, err := HillClimb(lowEndSpec(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Stride != 1 || res.Trials[0].Stride != 1 {
		t.Fatalf("baseline stride = %v, first trial %v; want the stock 1x", res.Baseline.Stride, res.Trials[0].Stride)
	}
	if res.Baseline.GoodputMbps <= 0 {
		t.Errorf("baseline goodput = %v, want > 0", res.Baseline.GoodputMbps)
	}
}

// TestRTTBudgetGuards: an absurdly tight RTT budget disqualifies every
// stride whose RTT exceeds the baseline's, so the baseline must win.
func TestRTTBudgetGuards(t *testing.T) {
	o := fastOpts()
	o.RTTBudget = 0.0001
	res, err := HillClimb(lowEndSpec(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Stride != 1 {
		t.Errorf("best stride = %v under a prohibitive RTT budget, want 1", res.Best.Stride)
	}
}

func TestHillClimb(t *testing.T) {
	res, err := HillClimb(lowEndSpec(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) < 3 {
		t.Fatalf("hill climb only evaluated %d strides", len(res.Trials))
	}
	// §6.2: on Low-End/20conns a larger stride must beat stock pacing.
	if res.Best.Stride == 1 || res.Improvement() <= 1.05 {
		t.Errorf("best stride %vx improves %.2fx, want > 1.05x over 1x (trials: %+v)",
			res.Best.Stride, res.Improvement(), res.Trials)
	}
	// Trials must be sorted by stride for presentation.
	for i := 1; i < len(res.Trials); i++ {
		if res.Trials[i].Stride < res.Trials[i-1].Stride {
			t.Fatalf("trials unsorted: %+v", res.Trials)
		}
	}
}

func TestEvaluateErrorPropagates(t *testing.T) {
	spec := lowEndSpec()
	spec.CC = "nope"
	if _, err := HillClimb(spec, fastOpts()); err == nil {
		t.Fatal("expected error for unknown CC")
	}
}
