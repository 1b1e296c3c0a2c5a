package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"mobbr/internal/check"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/seg"
)

// TestCheckerCatchesPoolLeak proves a deliberately leaked pooled packet is
// caught as a structured pool violation — both mid-run (the conservation
// cross-check against the network census) and at run end (the leak audit).
func TestCheckerCatchesPoolLeak(t *testing.T) {
	// The leak fires one conservation violation per audit tick, so it is
	// placed near the run end to leave room under the violation cap for
	// the final leak audit.
	spec := Spec{
		CC:       "cubic",
		Duration: time.Second,
		Check:    true,
		Inject:   Inject{Kind: InjectLeakPacket, At: 850 * time.Millisecond},
	}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("leaked run returned no error")
	}
	var ce *check.Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *check.Error: %v", err, err)
	}
	rules := map[string]bool{}
	for _, v := range ce.Violations {
		rules[v.Rule] = true
	}
	if !rules["pool/conservation"] {
		t.Errorf("no pool/conservation violation: %v", err)
	}
	if !rules["pool/leak"] {
		t.Errorf("no pool/leak violation: %v", err)
	}
}

// TestPooledRunMatchesFresh is the pooled-vs-fresh differential: recycling
// memory must not change a single measured number. The two runs share the
// spec, one with the recycler and one without; everything except the pool
// census itself must be deeply equal.
func TestPooledRunMatchesFresh(t *testing.T) {
	base := Spec{
		Device:   device.Pixel4,
		CPU:      device.LowEnd,
		CC:       "bbr,cubic",
		Conns:    4,
		Network:  WiFi,
		Duration: 2 * time.Second,
		Warmup:   200 * time.Millisecond,
		Interval: 250 * time.Millisecond,
		Seed:     13,
		Check:    true,
		Faults: faults.Schedule{Events: []faults.Event{
			faults.Blackout{Start: 800 * time.Millisecond, Duration: 300 * time.Millisecond},
		}},
	}
	pooled, err := Run(base)
	if err != nil {
		t.Fatalf("pooled run: %v", err)
	}
	unpooled, err := run(base, false)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if unpooled.Report.Pool != (seg.PoolStats{}) {
		t.Fatalf("unpooled run still has pool stats: %+v", unpooled.Report.Pool)
	}
	a, b := *pooled.Report, *unpooled.Report
	a.Pool, b.Pool = seg.PoolStats{}, seg.PoolStats{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pooled and fresh reports diverge:\npooled: %+v\nfresh:  %+v", a, b)
	}
}

// TestPooledRunRecyclesAndBalances checks the pool actually does its job on
// a real run: the steady state is served from the freelist (recycle ratio
// near 1), and after the run-end reclaim nothing is outstanding.
func TestPooledRunRecyclesAndBalances(t *testing.T) {
	res, err := Run(Spec{
		CC: "bbr", Conns: 2, Duration: 2 * time.Second, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Report.Pool
	if st.PacketGets == 0 || st.AckGets == 0 {
		t.Fatalf("pool unused: %+v", st)
	}
	if st.OutstandingPackets != 0 || st.OutstandingAcks != 0 {
		t.Fatalf("objects outstanding after reclaim: %+v", st)
	}
	if st.Violations != 0 {
		t.Fatalf("pool recorded %d violations on a healthy run", st.Violations)
	}
	// Freelist hit rate: fresh allocations are bounded by the high-water
	// mark of objects in flight, which is orders of magnitude below the
	// total churn on a 2 s gigabit run.
	if ratio := float64(st.PacketsRecycled()) / float64(st.PacketGets); ratio < 0.95 {
		t.Errorf("packet recycle ratio %.3f, want >= 0.95 (%+v)", ratio, st)
	}
	if ratio := float64(st.AcksRecycled()) / float64(st.AckGets); ratio < 0.95 {
		t.Errorf("ACK recycle ratio %.3f, want >= 0.95 (%+v)", ratio, st)
	}
}
