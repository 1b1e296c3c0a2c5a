package cc_test

import (
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/cctest"
	"mobbr/internal/cc/cubic"
	"mobbr/internal/units"
)

func TestWrapIdentity(t *testing.T) {
	m := cc.Wrap(bbr.New(), cc.Overrides{})
	if m.Name() != "master[bbr]" {
		t.Errorf("name = %q", m.Name())
	}
	if !m.WantsPacing() {
		t.Error("wrapped bbr must still want pacing")
	}
	if m.AckCost() != bbr.New().AckCost() {
		t.Error("without DisableModel the inner ack cost applies")
	}
	c := cc.Wrap(cubic.New(), cc.Overrides{})
	if c.WantsPacing() {
		t.Error("wrapped cubic must not want pacing")
	}
}

func TestNilInnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil inner")
		}
	}()
	cc.Wrap(nil, cc.Overrides{})
}

func TestFixedCwndPins(t *testing.T) {
	f := cctest.NewFakeConn()
	m := cc.Wrap(bbr.New(), cc.Overrides{FixedCwnd: 70})
	m.Init(f)
	if f.CwndPkts != 70 {
		t.Fatalf("cwnd after Init = %d, want 70", f.CwndPkts)
	}
	// Even after the inner model runs, the pin re-applies.
	for i := 0; i < 200; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 100*units.Mbps)
		m.OnAck(f, rs)
		if f.CwndPkts != 70 {
			t.Fatalf("cwnd drifted to %d at ack %d", f.CwndPkts, i)
		}
	}
}

func TestFixedPacingRatePins(t *testing.T) {
	f := cctest.NewFakeConn()
	m := cc.Wrap(bbr.New(), cc.Overrides{FixedPacingRate: 140 * units.Mbps})
	m.Init(f)
	for i := 0; i < 200; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 30*units.Mbps)
		m.OnAck(f, rs)
	}
	if f.Rate != 140*units.Mbps {
		t.Fatalf("pacing rate = %v, want pinned 140Mbps", f.Rate)
	}
}

func TestDisableModelSkipsInner(t *testing.T) {
	f := cctest.NewFakeConn()
	inner := bbr.New()
	m := cc.Wrap(inner, cc.Overrides{DisableModel: true, FixedCwnd: 70})
	m.Init(f)
	for i := 0; i < 500; i++ {
		rs := f.Ack(2, 2*time.Millisecond, 80*units.Mbps)
		m.OnAck(f, rs)
	}
	if inner.BtlBw() != 0 {
		t.Errorf("inner model ran despite DisableModel: btlbw = %v", inner.BtlBw())
	}
	if m.AckCost() >= inner.AckCost() {
		t.Errorf("disabled model ack cost %v should be below inner %v",
			m.AckCost(), inner.AckCost())
	}
}

func TestEventsForwardedUnlessDisabled(t *testing.T) {
	f := cctest.NewFakeConn()
	f.CwndPkts = 100
	inner := cubic.New()
	m := cc.Wrap(inner, cc.Overrides{})
	m.Init(f)
	m.OnEvent(f, cc.EventEnterRecovery)
	if f.CwndPkts != 70 { // cubic beta ≈ 0.7
		t.Errorf("recovery cwnd = %d, want cubic's 70", f.CwndPkts)
	}

	f2 := cctest.NewFakeConn()
	f2.CwndPkts = 100
	m2 := cc.Wrap(cubic.New(), cc.Overrides{DisableModel: true})
	m2.Init(f2)
	m2.OnEvent(f2, cc.EventEnterRecovery)
	if f2.CwndPkts != 100 {
		t.Errorf("disabled model reacted to loss: cwnd = %d", f2.CwndPkts)
	}
}

func TestFactoryWrapsEachInstance(t *testing.T) {
	factory := cc.WrapFactory(bbr.Factory(), cc.Overrides{FixedCwnd: 42})
	a, b := factory(), factory()
	if a == b {
		t.Fatal("factory returned the same instance twice")
	}
	f := cctest.NewFakeConn()
	a.Init(f)
	if f.CwndPkts != 42 {
		t.Errorf("factory-built module did not apply overrides")
	}
}

func TestInnerAccessor(t *testing.T) {
	inner := bbr.New()
	if cc.Wrap(inner, cc.Overrides{}).Inner() != inner {
		t.Error("Inner() did not return the wrapped module")
	}
}
