package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestOnlineBasics(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d, want 8", o.N())
	}
	if !almostEq(o.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", o.Mean())
	}
	// Sample (unbiased) variance of this classic set is 32/7.
	if !almostEq(o.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", o.Var(), 32.0/7.0)
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.CI95() != 0 {
		t.Error("zero-value Online should report zeros")
	}
	o.Add(3.5)
	if o.Mean() != 3.5 || o.Var() != 0 {
		t.Error("single sample: mean should be the sample, variance 0")
	}
}

func TestOnlineMatchesBatchProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var o Online
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			o.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		batchVar := ss / float64(len(xs)-1)
		return almostEq(o.Mean(), mean, 1e-6) && almostEq(o.Var(), batchVar, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{-5, 15},  // clamped
		{150, 50}, // clamped
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("single-element percentile should be the element")
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); !almostEq(got, 2.5, 1e-9) {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestWindowedMaxBasic(t *testing.T) {
	w := NewWindowedMax(10)
	if got := w.Update(0, 5); got != 5 {
		t.Fatalf("first sample max = %v, want 5", got)
	}
	if got := w.Update(1, 3); got != 5 {
		t.Fatalf("max = %v, want 5", got)
	}
	if got := w.Update(2, 9); got != 9 {
		t.Fatalf("max = %v, want 9 (new best)", got)
	}
	// Age the 9 out: window is 10, so at t=13 the best (t=2) is stale.
	w.Update(12, 4)
	if got := w.Update(13, 2); got >= 9 {
		t.Fatalf("stale best survived: max = %v", got)
	}
}

func TestWindowedMaxDegradesToRecent(t *testing.T) {
	w := NewWindowedMax(5)
	w.Update(0, 100)
	for i := uint64(1); i <= 20; i++ {
		w.Update(i, 10)
	}
	if got := w.Get(); got != 10 {
		t.Fatalf("after best ages out, max = %v, want 10", got)
	}
}

// Property: the windowed max is always >= the most recent sample and equals
// the true max when all samples fit in the window.
func TestWindowedMaxProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		w := NewWindowedMax(uint64(len(vals) + 1)) // window covers everything
		trueMax := float64(0)
		for i, v := range vals {
			fv := float64(v)
			if fv > trueMax {
				trueMax = fv
			}
			got := w.Update(uint64(i), fv)
			if got < fv {
				return false
			}
		}
		return w.Get() == trueMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowedMin(t *testing.T) {
	m := NewWindowedMin(10)
	m.Update(0, 50)
	if got := m.Update(1, 70); got != 50 {
		t.Fatalf("min = %v, want 50", got)
	}
	if got := m.Update(2, 30); got != 30 {
		t.Fatalf("min = %v, want 30", got)
	}
	// Inside the window a larger sample leaves the minimum alone.
	if got := m.Update(12, 60); got != 30 {
		t.Fatalf("min = %v inside the window, want 30", got)
	}
	// A stale minimum is replaced even by a larger sample.
	if got := m.Update(20, 90); got != 90 {
		t.Fatalf("stale min survived: %v", got)
	}
}

func TestWindowedMinZeroValueSample(t *testing.T) {
	m := NewWindowedMin(10)
	if got := m.Update(0, 0); got != 0 {
		t.Fatalf("zero is a valid min, got %v", got)
	}
	if got := m.Update(1, 5); got != 0 {
		t.Fatalf("min = %v, want 0", got)
	}
}

func TestWindowedMinTracksTrueMinWithinWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewWindowedMin(1 << 62) // effectively infinite window
	trueMin := math.Inf(1)
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 100
		if v < trueMin {
			trueMin = v
		}
		if got := m.Update(uint64(i), v); got != trueMin {
			t.Fatalf("at %d: min = %v, want %v", i, got, trueMin)
		}
	}
}

func TestJainIndexKnownValues(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1.0},
		{[]float64{1, 0, 0, 0}, 0.25}, // 1/n
		{[]float64{2, 2}, 1.0},
		{[]float64{3, 1}, 16.0 / 20.0}, // (4)²/(2·10)
		{nil, 0},
		{[]float64{0, 0}, 0},
	}
	for _, tt := range tests {
		if got := JainIndex(tt.in); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("JainIndex(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// Properties: the index lies in [1/n, 1], is scale-invariant, and equals 1
// exactly for equal allocations.
func TestJainIndexProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		allZero := true
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				allZero = false
			}
		}
		if allZero {
			return JainIndex(xs) == 0
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		if j < 1/n-1e-9 || j > 1+1e-9 {
			return false
		}
		// Scale invariance.
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7
		}
		return almostEq(j, JainIndex(scaled), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainEqualSharesAlwaysOne(t *testing.T) {
	for n := 1; n <= 50; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 3.7
		}
		if got := JainIndex(xs); !almostEq(got, 1, 1e-9) {
			t.Fatalf("n=%d equal shares index = %v", n, got)
		}
	}
}
