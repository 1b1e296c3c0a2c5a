package pacing

import (
	"testing"
	"testing/quick"
	"time"

	"mobbr/internal/seg"
	"mobbr/internal/units"
)

func TestConfigDefaults(t *testing.T) {
	p := New(Config{Enabled: true})
	cfg := p.Config()
	if cfg.Stride != 1 {
		t.Errorf("default stride = %v, want 1", cfg.Stride)
	}
	// The kernel's skb sizing: ~1 ms of data at the pacing rate, at least
	// 2 segments (tcp_min_tso_segs), at most the 64 KB GSO limit.
	for _, c := range []struct {
		rate units.Bandwidth
		want int
	}{
		{100 * units.Mbps, 8}, // 12.5 KB
		{units.Mbps, 2},
		{units.Gbps, 44},
	} {
		if got := p.SKBSegs(c.rate, seg.MSS); got != c.want {
			t.Errorf("SKBSegs(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestSKBSegsAutosize(t *testing.T) {
	p := New(Config{Enabled: true})
	tests := []struct {
		rate units.Bandwidth
		want int
	}{
		// 1ms of data at the rate, in 1460-byte segments.
		{100 * units.Mbps, 8}, // 12.5KB/ms → 8 segs
		{36 * units.Mbps, 3},  // 4.5KB/ms → 3 segs
		{10 * units.Mbps, 2},  // 1.25KB < 2 MSS floor
		{units.Mbps, 2},       // floor
		{units.Gbps, 44},      // 125KB/ms capped at 64KB GSO = 44 segs
		{0, 44},               // unknown rate → max burst
	}
	for _, tt := range tests {
		if got := p.SKBSegs(tt.rate, seg.MSS); got != tt.want {
			t.Errorf("SKBSegs(%v) = %d, want %d", tt.rate, got, tt.want)
		}
	}
}

func TestSKBSegsBoundsProperty(t *testing.T) {
	p := New(Config{Enabled: true})
	f := func(mbit uint16) bool {
		rate := units.Bandwidth(mbit) * units.Mbps
		got := p.SKBSegs(rate, seg.MSS)
		return got >= 2 && got <= int(64*units.KB/seg.MSS)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdleTimeEq1(t *testing.T) {
	p := New(Config{Enabled: true})
	// 4 segments at 36.5 Mbps: idle = skb/rate (Eq. 1 of the paper).
	skb := 4 * seg.MSS
	rate := units.Bandwidth(36.5 * float64(units.Mbps))
	idle := p.OnSKBSent(0, skb, rate)
	want := rate.TimeToSend(skb)
	if idle != want {
		t.Errorf("idle = %v, want %v", idle, want)
	}
	ok, wait := p.CanSendAt(0)
	if ok {
		t.Fatal("gate should be closed immediately after a send")
	}
	if wait != idle {
		t.Errorf("wait = %v, want %v", wait, idle)
	}
	if ok, _ := p.CanSendAt(idle); !ok {
		t.Error("gate should reopen at nextSendAt")
	}
}

func TestIdleTimeStrideEq2(t *testing.T) {
	base := New(Config{Enabled: true, Stride: 1})
	strided := New(Config{Enabled: true, Stride: 5})
	skb := 4 * seg.MSS
	rate := 50 * units.Mbps
	i1 := base.OnSKBSent(0, skb, rate)
	i5 := strided.OnSKBSent(0, skb, rate)
	if want := 5 * i1; i5 != want {
		t.Errorf("stride-5 idle = %v, want %v (5× Eq. 1)", i5, want)
	}
}

func TestDisabledPacerNeverBlocks(t *testing.T) {
	p := New(Config{Enabled: false})
	p.OnSKBSent(0, 64*units.KB, units.Mbps)
	if ok, wait := p.CanSendAt(0); !ok || wait != 0 {
		t.Errorf("disabled pacer blocked: ok=%v wait=%v", ok, wait)
	}
	if idle := p.OnSKBSent(0, 64*units.KB, units.Mbps); idle != 0 {
		t.Errorf("disabled pacer returned idle %v, want 0", idle)
	}
}

func TestFixedRateOverride(t *testing.T) {
	p := New(Config{Enabled: true, FixedRate: 140 * units.Mbps})
	if got := p.Rate(20 * units.Mbps); got != 140*units.Mbps {
		t.Errorf("Rate with override = %v, want 140Mbps", got)
	}
	p2 := New(Config{Enabled: true})
	if got := p2.Rate(20 * units.Mbps); got != 20*units.Mbps {
		t.Errorf("Rate without override = %v, want 20Mbps", got)
	}
}

func TestZeroRateSendDoesNotBlock(t *testing.T) {
	p := New(Config{Enabled: true})
	if idle := p.OnSKBSent(0, 4*seg.MSS, 0); idle != 0 {
		t.Errorf("unknown rate idle = %v, want 0", idle)
	}
	if ok, _ := p.CanSendAt(0); !ok {
		t.Error("gate should stay open with unknown rate")
	}
}

func TestStatsAveraging(t *testing.T) {
	p := New(Config{Enabled: true})
	rate := 100 * units.Mbps
	p.OnSKBSent(0, 2*seg.MSS, rate)
	p.OnSKBSent(time.Millisecond, 4*seg.MSS, rate)
	p.TimerArmed()
	s := p.Stats()
	if s.Periods != 2 {
		t.Fatalf("periods = %d, want 2", s.Periods)
	}
	if s.AvgSKB != 3*seg.MSS {
		t.Errorf("avg skb = %v, want %v", s.AvgSKB, 3*seg.MSS)
	}
	wantIdle := (rate.TimeToSend(2*seg.MSS) + rate.TimeToSend(4*seg.MSS)) / 2
	if s.AvgIdle != wantIdle {
		t.Errorf("avg idle = %v, want %v", s.AvgIdle, wantIdle)
	}
	if s.TimerArms != 1 {
		t.Errorf("timer arms = %d, want 1", s.TimerArms)
	}
}

func TestStatsEmpty(t *testing.T) {
	p := New(Config{Enabled: true})
	s := p.Stats()
	if s.AvgSKB != 0 || s.AvgIdle != 0 || s.Periods != 0 {
		t.Errorf("empty stats = %+v, want zeros", s)
	}
}

// Property: idle time scales linearly with both skb length and stride.
func TestIdleScalingProperty(t *testing.T) {
	f := func(segs uint8, strideX uint8) bool {
		n := int(segs%9) + 1
		stride := float64(strideX%50) + 1
		rate := 100 * units.Mbps
		p := New(Config{Enabled: true, Stride: stride})
		idle := p.OnSKBSent(0, units.DataSize(n)*seg.MSS, rate)
		want := time.Duration(float64(rate.TimeToSend(units.DataSize(n)*seg.MSS)) * stride)
		diff := idle - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
