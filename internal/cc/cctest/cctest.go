// Package cctest provides a scripted fake cc.Conn for unit-testing
// congestion-control modules without the full transport.
package cctest

import (
	"math/rand"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/units"
)

// FakeConn is a controllable cc.Conn. Fields are exported so tests can
// script the transport state the module observes.
type FakeConn struct {
	Time        time.Duration
	Mss         units.DataSize
	CwndPkts    int
	SsthreshVal int
	Rate        units.Bandwidth
	Inflight    int
	DeliveredN  int64
	Srtt        time.Duration
	CAState     cc.State
	CwndLim     bool
	Rng         *rand.Rand
}

// NewFakeConn returns a fake with sensible defaults (MSS 1460, cwnd 10).
func NewFakeConn() *FakeConn {
	return &FakeConn{
		Mss:         1460, // seg.MSS
		CwndPkts:    10,
		SsthreshVal: 1 << 30,
		CwndLim:     true,
		Rng:         rand.New(rand.NewSource(1)),
	}
}

// Now implements cc.Conn.
func (f *FakeConn) Now() time.Duration { return f.Time }

// MSS implements cc.Conn.
func (f *FakeConn) MSS() units.DataSize { return f.Mss }

// Cwnd implements cc.Conn.
func (f *FakeConn) Cwnd() int { return f.CwndPkts }

// SetCwnd implements cc.Conn.
func (f *FakeConn) SetCwnd(p int) {
	if p < 1 {
		p = 1
	}
	f.CwndPkts = p
}

// Ssthresh implements cc.Conn.
func (f *FakeConn) Ssthresh() int { return f.SsthreshVal }

// SetSsthresh implements cc.Conn.
func (f *FakeConn) SetSsthresh(p int) { f.SsthreshVal = p }

// PacingRate implements cc.Conn.
func (f *FakeConn) PacingRate() units.Bandwidth { return f.Rate }

// SetPacingRate implements cc.Conn.
func (f *FakeConn) SetPacingRate(r units.Bandwidth) { f.Rate = r }

// PacketsInFlight implements cc.Conn.
func (f *FakeConn) PacketsInFlight() int { return f.Inflight }

// Delivered implements cc.Conn.
func (f *FakeConn) Delivered() int64 { return f.DeliveredN }

// SRTT implements cc.Conn.
func (f *FakeConn) SRTT() time.Duration { return f.Srtt }

// State implements cc.Conn.
func (f *FakeConn) State() cc.State { return f.CAState }

// IsCwndLimited implements cc.Conn.
func (f *FakeConn) IsCwndLimited() bool { return f.CwndLim }

// Rand implements cc.Conn.
func (f *FakeConn) Rand() *rand.Rand { return f.Rng }

// Ack delivers n packets with the given RTT and advances the fake clock,
// returning a valid steady-flow rate sample at the given delivery rate.
func (f *FakeConn) Ack(n int64, rtt time.Duration, rate units.Bandwidth) *cc.RateSample {
	// The acked packet was sent roughly Inflight packets ago, so its
	// delivered-at-send snapshot lags by that much — this is what makes
	// round counting advance once per window rather than once per ack.
	prior := f.DeliveredN - int64(f.Inflight)
	if prior < 0 {
		prior = 0
	}
	f.DeliveredN += n
	iv := rate.TimeToSend(units.DataSize(n) * f.Mss)
	if iv <= 0 {
		iv = time.Millisecond
	}
	f.Time += iv
	if f.Srtt == 0 {
		f.Srtt = rtt
	} else {
		f.Srtt = (7*f.Srtt + rtt) / 8
	}
	return &cc.RateSample{
		Delivered:      n,
		PriorDelivered: prior,
		Interval:       iv,
		RTT:            rtt,
		AckedSacked:    n,
		PriorInFlight:  f.Inflight,
	}
}
