package bbrv2

import (
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/cctest"
	"mobbr/internal/units"
)

func TestIdentity(t *testing.T) {
	b := New()
	if b.Name() != "bbr2" {
		t.Errorf("name = %q", b.Name())
	}
	if !b.WantsPacing() {
		t.Error("bbr2 must want pacing")
	}
	if b.AckCost() < 2400 {
		t.Error("bbr2 per-ack cost should be at least v1's")
	}
}

func drive(b *BBRv2, f *cctest.FakeConn, n int, rtt time.Duration, rate units.Bandwidth) {
	for i := 0; i < n; i++ {
		rs := f.Ack(2, rtt, rate)
		b.OnAck(f, rs)
	}
}

func TestStartupToProbeBW(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 4
	b := New()
	b.Init(f)
	drive(b, f, 1000, 2*time.Millisecond, 50*units.Mbps)
	if b.Mode() != bbr.ProbeBW {
		t.Fatalf("mode = %v, want ProbeBW", b.Mode())
	}
}

func TestLossyRoundLearnsInflightHi(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 40
	b := New()
	b.Init(f)
	drive(b, f, 500, 2*time.Millisecond, 50*units.Mbps)
	if b.InflightHi() != unbounded {
		t.Fatalf("inflight_hi learned without loss: %d", b.InflightHi())
	}
	// Feed rounds with >2% loss.
	for i := 0; i < 200; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		rs.Losses = 1 // 1 loss per 2 delivered = 33% >> 2%
		b.OnAck(f, rs)
	}
	hi := b.InflightHi()
	if hi == unbounded {
		t.Fatal("inflight_hi never learned from lossy rounds")
	}
	if hi > int(float64(f.Inflight)*beta)+1 {
		t.Errorf("inflight_hi = %d, want <= beta×inflight = %v", hi, float64(f.Inflight)*beta)
	}
}

// TestModestLossSetsInflightHiByValue pins the loss response by value:
// rounds of about 40 delivered packets with a loss every 30 lose 2.4–4.8 %,
// over the 2 % threshold (and far under 20 %), so each is lossy and
// inflight_hi becomes 0.7 × the 40 packets in flight.
func TestModestLossSetsInflightHiByValue(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 40
	b := New()
	b.Init(f)
	drive(b, f, 500, 2*time.Millisecond, 50*units.Mbps)
	for i := 0; i < 300; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		if i%15 == 14 {
			rs.Losses = 1
		}
		b.OnAck(f, rs)
	}
	if got := b.InflightHi(); got != 28 {
		t.Errorf("inflight_hi = %d after ~3%% loss rounds at 40 in flight, want 28", got)
	}
}

func TestLowLossDoesNotSetInflightHi(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 100 // one round ≈ 100 delivered packets
	b := New()
	b.Init(f)
	// 1 loss per 400 delivered ≈ 1% per lossy round, below the 2%
	// threshold.
	for i := 0; i < 2000; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		if i%200 == 199 { // avoid the tiny bootstrap round at i=0
			rs.Losses = 1
		}
		b.OnAck(f, rs)
	}
	if b.InflightHi() != unbounded {
		t.Errorf("inflight_hi = %d from sub-threshold loss, want unbounded", b.InflightHi())
	}
}

func TestCwndBoundedByInflightHi(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 40
	b := New()
	b.Init(f)
	drive(b, f, 500, 4*time.Millisecond, 200*units.Mbps)
	for i := 0; i < 100; i++ {
		rs := f.Ack(2, 4*time.Millisecond, 200*units.Mbps)
		rs.Losses = 1
		b.OnAck(f, rs)
	}
	hi := b.InflightHi()
	if hi == unbounded {
		t.Fatal("precondition: no inflight_hi")
	}
	drive(b, f, 500, 4*time.Millisecond, 200*units.Mbps)
	if f.CwndPkts > hi {
		t.Errorf("cwnd %d exceeds inflight_hi %d", f.CwndPkts, hi)
	}
}

func TestProbePhaseCycle(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 4
	b := New()
	b.Init(f)
	drive(b, f, 1000, 2*time.Millisecond, 50*units.Mbps)
	if b.Mode() != bbr.ProbeBW {
		t.Fatalf("mode = %v", b.Mode())
	}
	seen := map[Phase]bool{}
	// Make inflight respond to the phase the way a real transport would:
	// high while probing up, draining low in DOWN, near-BDP otherwise.
	for i := 0; i < 30000; i++ {
		switch b.CurrentPhase() {
		case PhaseUp:
			f.Inflight = 60
		case PhaseDown:
			f.Inflight = 5
		default:
			f.Inflight = 9
		}
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		b.OnAck(f, rs)
		seen[b.CurrentPhase()] = true
		if len(seen) == 4 {
			break
		}
	}
	for _, p := range []Phase{PhaseDown, PhaseCruise, PhaseRefill, PhaseUp} {
		if !seen[p] {
			t.Errorf("phase %v never visited (saw %v)", p, seen)
		}
	}
}

func TestInflightLoDecays(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 40
	b := New()
	b.Init(f)
	drive(b, f, 500, 2*time.Millisecond, 50*units.Mbps)
	for i := 0; i < 100; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		rs.Losses = 1
		b.OnAck(f, rs)
	}
	lo := b.inflightLo
	if lo == unbounded {
		t.Fatal("precondition: no inflight_lo")
	}
	// Clean rounds decay the short-term bound away.
	drive(b, f, 5000, 2*time.Millisecond, 50*units.Mbps)
	if b.inflightLo != unbounded {
		t.Errorf("inflight_lo = %d never decayed to unbounded", b.inflightLo)
	}
}

func TestExcessStartupLossEndsStartup(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 30
	b := New()
	b.Init(f)
	for i := 0; i < 200 && !b.FullPipe; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 400*units.Mbps)
		rs.Losses = 2
		b.OnAck(f, rs)
	}
	if !b.FullPipe {
		t.Error("startup did not end under heavy loss")
	}
}

func TestEventHandlingPreservesCwnd(t *testing.T) {
	f := cctest.NewFakeConn()
	f.CwndPkts = 64
	b := New()
	b.Init(f)
	b.OnEvent(f, cc.EventEnterLoss)
	f.CwndPkts = 1
	b.OnEvent(f, cc.EventExitRecovery)
	if f.CwndPkts != 64 {
		t.Errorf("cwnd = %d after recovery, want 64", f.CwndPkts)
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{PhaseDown: "DOWN", PhaseCruise: "CRUISE", PhaseRefill: "REFILL", PhaseUp: "UP"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// TestLabelTable holds the transition labels to the concatenation they
// replaced, in every mode and phase and for an out-of-range phase, and
// requires that building one allocates nothing.
func TestLabelTable(t *testing.T) {
	b := New()
	for _, m := range []bbr.Mode{bbr.Startup, bbr.Drain, bbr.ProbeBW, bbr.ProbeRTT} {
		for _, p := range []Phase{PhaseDown, PhaseCruise, PhaseRefill, PhaseUp, Phase(7)} {
			b.mode, b.phase = m, p
			want := m.String()
			if m == bbr.ProbeBW {
				want += "/" + p.String()
			}
			if got := b.label(); got != want {
				t.Errorf("label(%v, %v) = %q, want %q", m, p, got, want)
			}
		}
	}
	b.mode, b.phase = bbr.ProbeBW, PhaseCruise
	if allocs := testing.AllocsPerRun(100, func() { _ = b.label() }); allocs != 0 {
		t.Errorf("label allocated %.1f objects", allocs)
	}
}

func TestECNAlphaTracksCEFraction(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 40
	b := New()
	b.Init(f)
	drive(b, f, 500, 2*time.Millisecond, 50*units.Mbps)
	if b.ECNAlpha() != 0 {
		t.Fatalf("alpha = %v before any CE", b.ECNAlpha())
	}
	// Rounds with every packet CE-marked push alpha toward 1.
	for i := 0; i < 2000; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		rs.CECount = 2
		b.OnAck(f, rs)
	}
	if a := b.ECNAlpha(); a < 0.5 {
		t.Errorf("alpha = %v after all-CE rounds, want > 0.5", a)
	}
	// Clean rounds decay it again.
	drive(b, f, 5000, 2*time.Millisecond, 50*units.Mbps)
	if a := b.ECNAlpha(); a > 0.2 {
		t.Errorf("alpha = %v after clean rounds, want decayed", a)
	}
}

func TestECNHighRoundCutsInflightHi(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 40
	b := New()
	b.Init(f)
	drive(b, f, 500, 2*time.Millisecond, 50*units.Mbps)
	if b.InflightHi() != unbounded {
		t.Fatal("precondition: no ceiling yet")
	}
	// >50% CE per round: treated like a lossy round.
	for i := 0; i < 200; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		rs.CECount = 2
		b.OnAck(f, rs)
	}
	if b.InflightHi() == unbounded {
		t.Error("over-threshold CE rounds did not set inflight_hi")
	}
}

// InflightHi returns the loss-learned inflight ceiling in packets, or a
// very large value when unknown.
func (b *BBRv2) InflightHi() int { return b.inflightHi }

// ECNAlpha returns the EWMA of the per-round CE fraction.
func (b *BBRv2) ECNAlpha() float64 { return b.ecnAlpha }
