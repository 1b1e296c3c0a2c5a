package bbr

import (
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/cctest"
	"mobbr/internal/units"
)

func TestIdentity(t *testing.T) {
	b := New()
	if b.Name() != "bbr" {
		t.Errorf("name = %q", b.Name())
	}
	if !b.WantsPacing() {
		t.Error("bbr must want pacing")
	}
	if b.AckCost() <= 1000 {
		t.Error("bbr per-ack model cost should exceed cubic's")
	}
}

func TestInitSetsHighGainPacing(t *testing.T) {
	f := cctest.NewFakeConn()
	b := New()
	b.Init(f)
	if f.Rate == 0 {
		t.Fatal("no initial pacing rate")
	}
	if b.Mode() != Startup {
		t.Errorf("initial mode = %v, want STARTUP", b.Mode())
	}
}

// drive feeds n acks at a steady delivery rate.
func drive(b *BBR, f *cctest.FakeConn, n int, rtt time.Duration, rate units.Bandwidth) {
	for i := 0; i < n; i++ {
		rs := f.Ack(2, rtt, rate)
		b.OnAck(f, rs)
	}
}

func TestBandwidthFilterConverges(t *testing.T) {
	f := cctest.NewFakeConn()
	b := New()
	b.Init(f)
	drive(b, f, 500, 2*time.Millisecond, 80*units.Mbps)
	got := b.BtlBw()
	if got < 60*units.Mbps || got > 110*units.Mbps {
		t.Errorf("btlbw = %v after steady 80Mbps, want ~80Mbps", got)
	}
}

func TestStartupExitsOnPlateau(t *testing.T) {
	f := cctest.NewFakeConn()
	b := New()
	b.Init(f)
	// Constant delivery rate: after ~3 rounds of no growth STARTUP ends.
	drive(b, f, 400, 2*time.Millisecond, 50*units.Mbps)
	if !b.FullPipe() {
		t.Fatal("full pipe never declared on a plateaued rate")
	}
	if b.Mode() == Startup {
		t.Errorf("mode still STARTUP after plateau")
	}
}

func TestReachesProbeBWAndCyclesGains(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 4 // lets DRAIN exit immediately
	b := New()
	b.Init(f)
	drive(b, f, 2000, 2*time.Millisecond, 50*units.Mbps)
	if b.Mode() != ProbeBW {
		t.Fatalf("mode = %v, want PROBE_BW", b.Mode())
	}
	// Observe gain cycling over time. Keep inflight near the probed BDP
	// so the 1.25 probe phase can complete.
	f.Inflight = 30
	seen := map[float64]bool{}
	for i := 0; i < 2000; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		b.OnAck(f, rs)
		seen[b.pacingGain] = true
	}
	if !seen[1.25] || !seen[0.75] || !seen[1.0] {
		t.Errorf("gain cycle incomplete: %v", seen)
	}
}

func TestPacingRateTracksBandwidth(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 4
	b := New()
	b.Init(f)
	drive(b, f, 2000, 2*time.Millisecond, 50*units.Mbps)
	r := f.Rate
	if r < 25*units.Mbps || r > 100*units.Mbps {
		t.Errorf("pacing rate = %v in PROBE_BW at 50Mbps, want within gain range", r)
	}
}

func TestCwndTargetsBDPMultiple(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 4
	b := New()
	b.Init(f)
	drive(b, f, 3000, 4*time.Millisecond, 60*units.Mbps)
	// BDP = 60Mbps × 4ms = 30KB ≈ 20.5 pkts; cwnd target ≈ 2×.
	bdp := 60.0e6 / 8 * 0.004 / 1460
	got := float64(f.CwndPkts)
	if got < bdp*1.2 || got > bdp*3.5 {
		t.Errorf("cwnd = %v, want ≈2×BDP (BDP=%.1f pkts)", got, bdp)
	}
}

func TestMinRTTTracksDecrease(t *testing.T) {
	f := cctest.NewFakeConn()
	b := New()
	b.Init(f)
	drive(b, f, 100, 5*time.Millisecond, 50*units.Mbps)
	drive(b, f, 100, 2*time.Millisecond, 50*units.Mbps)
	if b.MinRTTEstimate() != 2*time.Millisecond {
		t.Errorf("min rtt = %v, want 2ms", b.MinRTTEstimate())
	}
}

func TestProbeRTTEntryAfterWindowExpiry(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 4
	b := New()
	b.Init(f)
	drive(b, f, 2000, 2*time.Millisecond, 50*units.Mbps)
	if b.Mode() != ProbeBW {
		t.Fatalf("precondition: mode = %v", b.Mode())
	}
	f.Inflight = 50
	// Hold RTT above the minimum for >10s of fake time.
	f.Time += 11 * time.Second
	rs := f.Ack(2, 3*time.Millisecond, 50*units.Mbps)
	b.OnAck(f, rs)
	if b.Mode() != ProbeRTT {
		t.Fatalf("mode = %v after min-rtt expiry, want PROBE_RTT", b.Mode())
	}
	// cwnd collapses to the floor.
	rs = f.Ack(2, 3*time.Millisecond, 50*units.Mbps)
	b.OnAck(f, rs)
	if f.CwndPkts > minCwndPackets {
		t.Errorf("cwnd = %d in PROBE_RTT, want <= %d", f.CwndPkts, minCwndPackets)
	}
	// Drain inflight, dwell 200ms + a round, then it exits.
	f.Inflight = 2
	for i := 0; i < 50 && b.Mode() == ProbeRTT; i++ {
		f.Time += 20 * time.Millisecond
		rs := f.Ack(2, 3*time.Millisecond, 50*units.Mbps)
		b.OnAck(f, rs)
	}
	if b.Mode() == ProbeRTT {
		t.Error("never exited PROBE_RTT")
	}
	if f.CwndPkts <= minCwndPackets {
		t.Error("cwnd not restored after PROBE_RTT")
	}
}

func TestLossDoesNotCollapseModel(t *testing.T) {
	f := cctest.NewFakeConn()
	f.Inflight = 20
	b := New()
	b.Init(f)
	drive(b, f, 1000, 2*time.Millisecond, 50*units.Mbps)
	bwBefore := b.BtlBw()
	// A burst of lossy samples: BBR v1 must keep its bandwidth estimate.
	for i := 0; i < 50; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 50*units.Mbps)
		rs.Losses = 3
		b.OnAck(f, rs)
	}
	if got := b.BtlBw(); got < bwBefore/2 {
		t.Errorf("bandwidth estimate collapsed on loss: %v -> %v", bwBefore, got)
	}
}

func TestAppLimitedSamplesDoNotLowerEstimate(t *testing.T) {
	f := cctest.NewFakeConn()
	b := New()
	b.Init(f)
	drive(b, f, 500, 2*time.Millisecond, 80*units.Mbps)
	before := b.BtlBw()
	for i := 0; i < 500; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 5*units.Mbps)
		rs.IsAppLimited = true
		b.OnAck(f, rs)
	}
	if got := b.BtlBw(); got < before/2 {
		t.Errorf("app-limited samples lowered estimate: %v -> %v", before, got)
	}
}

func TestRTOPreservesCwndViaEvents(t *testing.T) {
	f := cctest.NewFakeConn()
	f.CwndPkts = 80
	b := New()
	b.Init(f)
	b.OnEvent(f, cc.EventEnterLoss)
	f.CwndPkts = 1 // transport collapse
	b.OnEvent(f, cc.EventExitRecovery)
	if f.CwndPkts != 80 {
		t.Errorf("cwnd after recovery exit = %d, want 80 restored", f.CwndPkts)
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{Startup: "STARTUP", Drain: "DRAIN", ProbeBW: "PROBE_BW", ProbeRTT: "PROBE_RTT"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

// MinRTTEstimate returns BBR's propagation-delay estimate.
func (b *BBR) MinRTTEstimate() time.Duration { return b.minRTT }

// FullPipe reports whether startup declared the pipe full.
func (b *BBR) FullPipe() bool { return b.fullPipe }
