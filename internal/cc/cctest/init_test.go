package cctest_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/cc/cctest"
	"mobbr/internal/cc/cubic"
	"mobbr/internal/cc/reno"
	"mobbr/internal/units"
)

// TestInitRestoresFresh is the executable form of Init's contract, which
// lets a pooled connection keep its congestion module across flows: a module
// that has been through slow start, fast recovery, a spurious RTO, an ECN
// echo and (for BBR) PROBE_RTT must, after Init on a new connection, equal
// what its factory builds and Init starts on an identical one. Construction
// settings survive (the min-RTT window, the master module's overrides); the mode
// listener does not, and Init must not call it.
func TestInitRestoresFresh(t *testing.T) {
	window := func(d time.Duration) cc.Factory {
		return func() cc.CongestionControl {
			b := bbr.New()
			b.SetMinRTTWindow(d)
			return b
		}
	}
	for _, tc := range []struct {
		name     string
		factory  cc.Factory
		probeRTT bool // the drive must take the module through PROBE_RTT
	}{
		{"reno", reno.Factory(), false},
		{"cubic", cubic.Factory(), false},
		{"bbr", bbr.Factory(), true},
		{"bbr2", bbrv2.Factory(), true},
		{"bbr/minrtt500ms", window(500 * time.Millisecond), true},
		{"mastermod(bbr)", cc.WrapFactory(bbr.Factory(), cc.Overrides{FixedCwnd: 10}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, f := tc.factory(), cctest.NewFakeConn()
			m.Init(f)
			var modes []string
			if r := modeReporter(m); r != nil {
				r.SetModeListener(func(_, new string) { modes = append(modes, new) })
			}
			drive(m, f)
			if tc.probeRTT && !slices.Contains(modes, "PROBE_RTT") {
				t.Fatalf("the drive never reached PROBE_RTT (modes %v)", modes)
			}
			calls := len(modes)

			want, wantConn := tc.factory(), cctest.NewFakeConn()
			want.Init(wantConn)
			if reflect.DeepEqual(m, want) {
				t.Fatal("the drive left the module in its initial state")
			}
			conn := cctest.NewFakeConn()
			m.Init(conn)
			if len(modes) != calls {
				t.Errorf("Init called the old flow's mode listener: %v", modes[calls:])
			}
			if !reflect.DeepEqual(m, want) {
				t.Errorf("module after Init differs from a fresh one:\nreused %+v\nfresh  %+v", m, want)
			}
			if !reflect.DeepEqual(conn, wantConn) {
				t.Errorf("Init on a reused module set up the connection differently:\nreused %+v\nfresh  %+v", conn, wantConn)
			}
		})
	}
}

// modeReporter finds the state machine that reports modes, looking through
// the master module's wrapper.
func modeReporter(m cc.CongestionControl) cc.ModeReporter {
	if w, ok := m.(*cc.Master); ok {
		m = w.Inner()
	}
	r, _ := m.(cc.ModeReporter)
	return r
}

// drive takes a started flow through every kind of input a transport sends:
// slow start, a lossy recovery and its exit, an RTO later found spurious, an
// ECN echo, and enough time for the min-RTT estimate to go stale.
func drive(m cc.CongestionControl, f *cctest.FakeConn) {
	const rate = 50 * units.Mbps
	ack := func(n int64, rtt time.Duration, losses, ce int64) {
		f.Inflight = f.CwndPkts / 2
		rs := f.Ack(n, rtt, rate)
		rs.Losses, rs.CECount = losses, ce
		m.OnAck(f, rs)
	}
	for i := 0; i < 300; i++ {
		ack(2, 20*time.Millisecond, 0, 0)
	}

	f.CAState = cc.StateRecovery
	m.OnEvent(f, cc.EventEnterRecovery)
	for i := 0; i < 20; i++ {
		ack(1, 25*time.Millisecond, 1, 0)
	}
	f.CAState = cc.StateOpen
	m.OnEvent(f, cc.EventExitRecovery)

	f.CAState = cc.StateLoss
	m.OnEvent(f, cc.EventEnterLoss)
	f.CAState = cc.StateOpen
	m.OnEvent(f, cc.EventSpuriousRTO)

	m.OnEvent(f, cc.EventECE)
	ack(1, 22*time.Millisecond, 0, 1)

	// Past any min-RTT window: BBR enters PROBE_RTT.
	f.Time += 11 * time.Second
	for i := 0; i < 50; i++ {
		ack(1, 30*time.Millisecond, 0, 0)
	}
}
