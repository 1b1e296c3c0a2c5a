package cctest_test

import (
	"math/rand"
	"reflect"
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

// TestRateSampleNotRetained is the executable form of OnAck's "must not
// retain rs" rule, which lets the transport hand every ACK the same
// connection-owned scratch sample. Each module sees one scripted ACK and
// event stream twice: once with a fresh sample per ACK, once through a single
// reused sample that is poisoned the moment OnAck returns. A module that kept
// the pointer would read the poison (or the next ACK's values) and its state
// would diverge.
func TestRateSampleNotRetained(t *testing.T) {
	modules := map[string]func() cc.CongestionControl{
		"reno":  func() cc.CongestionControl { return reno.New() },
		"cubic": func() cc.CongestionControl { return cubic.New() },
		"bbr":   func() cc.CongestionControl { return bbr.New() },
		"bbr2":  func() cc.CongestionControl { return bbrv2.New() },
	}
	poison := cc.RateSample{
		Delivered: 1 << 40, PriorDelivered: -7, Interval: time.Nanosecond,
		RTT: time.Hour, AckedSacked: 1 << 30, Losses: 1 << 30,
		PriorInFlight: -1, IsAppLimited: true, CECount: 1 << 30,
	}
	for name, mk := range modules {
		t.Run(name, func(t *testing.T) {
			drive := func(reuse bool) (cc.CongestionControl, *cctest.FakeConn) {
				rng := rand.New(rand.NewSource(7))
				f := cctest.NewFakeConn()
				m := mk()
				m.Init(f)
				var scratch cc.RateSample
				for i := 0; i < 5000; i++ {
					f.Inflight = f.CwndPkts / 2
					rtt := time.Duration(20+rng.Intn(30)) * time.Millisecond
					rate := units.Bandwidth(5+rng.Intn(95)) * units.Mbps
					rs := f.Ack(int64(1+rng.Intn(4)), rtt, rate)
					rs.IsAppLimited = rng.Intn(10) == 0
					switch rng.Intn(40) {
					case 0:
						rs.Losses = int64(1 + rng.Intn(3))
						f.CAState = cc.StateRecovery
						m.OnEvent(f, cc.EventEnterRecovery)
					case 1:
						if f.CAState != cc.StateOpen {
							f.CAState = cc.StateOpen
							m.OnEvent(f, cc.EventExitRecovery)
						}
					case 2:
						rs.CECount = 1
						m.OnEvent(f, cc.EventECE)
					}
					if reuse {
						scratch = *rs
						m.OnAck(f, &scratch)
						scratch = poison
					} else {
						m.OnAck(f, rs)
					}
				}
				return m, f
			}
			mFresh, fFresh := drive(false)
			mReused, fReused := drive(true)
			if !reflect.DeepEqual(mFresh, mReused) {
				t.Errorf("module state diverged through a reused sample:\nfresh  %+v\nreused %+v", mFresh, mReused)
			}
			if !reflect.DeepEqual(fFresh, fReused) {
				t.Errorf("connection state diverged through a reused sample:\nfresh  %+v\nreused %+v", fFresh, fReused)
			}
		})
	}
}
