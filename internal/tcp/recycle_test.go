package tcp_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/check"
	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/units"
)

// churnRun is everything one churn run simulated.
type churnRun struct {
	processed uint64
	report    *iperf.Report
	stats     *flows.Stats
}

// churnDur is the simulated length of one churn run.
const churnDur = 4 * time.Second

// runChurn assembles the bench's churn workload at a fraction of its size —
// Low-End core, Ethernet, every flow live at t=0, 0.4 arrivals per live flow
// per second, 4 KB mice, the invariant checker on strided audits — the way
// core.Run does, and runs it with the given congestion control. With fresh
// set, the pool's free list is dropped after every event, so every flow gets
// a connection nothing has used before. The size is the smallest that keeps
// the core saturated for seconds: at 1000 flows for 3 s no CPU job outlives
// its connection's Put and the differential stops seeing the
// cross-incarnation RTO it was written for.
func runChurn(t *testing.T, name string, factory cc.Factory, seed int64, fresh bool) churnRun {
	t.Helper()
	const (
		live = 1500
		dur  = churnDur
	)
	eng := sim.New(seed)
	cpu, _ := device.NewCPUs(eng, device.Pixel4, device.LowEnd)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatal(err)
	}
	pool := seg.NewPool()
	sess, err := flows.New(eng, cpu, path,
		iperf.Config{Duration: dur, CC: factory, Pool: pool},
		flows.Config{ArrivalRate: 0.4 * live, MaxLive: live, InitialFlows: live, MiceBytes: 4 * units.KB})
	if err != nil {
		t.Fatal(err)
	}
	chk := check.New(eng, fmt.Sprintf("churn cc=%s seed=%d fresh=%v", name, seed, fresh), 0)
	chk.WatchDynamic(sess.Auditables)
	chk.SetAuditStride(256)
	chk.SetHeldAcks(sess.Aggregates().HeldAcks)
	sess.SetOnRetire(chk.Forget)
	chk.WatchPool(pool, path)
	chk.Start()

	sess.Start()
	if fresh {
		for {
			at, ok := eng.NextEventTime()
			if !ok || at > dur {
				break
			}
			eng.Step()
			sess.Pool().DropFree()
		}
	}
	eng.Run(dur)
	report, stats := sess.Finish()
	chk.CheckNow()
	chk.CheckLeaks()
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	return churnRun{eng.Processed(), report, stats}
}

// TestRecycledEqualsFresh is the differential behind the conn pool's contract:
// a recycled connection simulates exactly as a fresh one. Each churn run is
// repeated with reuse made impossible, and everything the two simulated must
// agree — event count, report, flow statistics — except the pool's own
// census of how many slots it built. Besides the four plain modules it runs
// the two wrappings core.Run applies, whose construction-time settings a
// recycled module must keep: the min-RTT window every run under 30 s scales
// BBR's filter to, and the master module's overrides.
func TestRecycledEqualsFresh(t *testing.T) {
	window := churnDur / 3
	if window < 500*time.Millisecond {
		window = 500 * time.Millisecond
	}
	scaled := func() cc.CongestionControl {
		b := bbr.New()
		b.SetMinRTTWindow(window)
		return b
	}
	// A factory belongs to one run, and the subtests run in parallel, so
	// each builds its own.
	registered := func(name string) func() cc.Factory {
		return func() cc.Factory { return core.Factories()[name] }
	}
	factories := []struct {
		name       string
		newFactory func() cc.Factory
	}{
		{"bbr", registered("bbr")},
		{"cubic", registered("cubic")},
		{"bbr2", registered("bbr2")},
		{"reno", registered("reno")},
		{"bbr-minrtt-window", func() cc.Factory { return scaled }},
		{"mastermod-bbr", func() cc.Factory {
			return cc.WrapFactory(core.Factories()["bbr"], cc.Overrides{FixedCwnd: 10})
		}},
	}
	for _, f := range factories {
		for seed := int64(1); seed <= 3; seed++ {
			f, seed := f, seed
			t.Run(fmt.Sprintf("%s/seed%d", f.name, seed), func(t *testing.T) {
				t.Parallel()
				factory := f.newFactory()
				pooled := runChurn(t, f.name, factory, seed, false)
				fresh := runChurn(t, f.name, factory, seed, true)
				pp, fp := pooled.stats.Pool, fresh.stats.Pool
				if pp.Reuses == 0 || pooled.stats.Completed == 0 {
					t.Fatalf("pooled run recycled nothing: %+v", pp)
				}
				if fp.Reuses != 0 || fp.Created != fp.Gets {
					t.Fatalf("reference run reused connections: %+v", fp)
				}
				pooled.stats.Pool, fresh.stats.Pool = tcp.ConnPoolStats{}, tcp.ConnPoolStats{}
				if pooled.processed != fresh.processed {
					t.Errorf("events: pooled %d, fresh %d", pooled.processed, fresh.processed)
				}
				if !reflect.DeepEqual(pooled.report, fresh.report) {
					t.Errorf("report:\npooled %+v\nfresh  %+v", pooled.report, fresh.report)
				}
				if !reflect.DeepEqual(pooled.stats, fresh.stats) {
					ps, fs := *pooled.stats, *fresh.stats
					ps.FCTms, fs.FCTms = nil, nil
					t.Errorf("flow stats (FCT samples elided):\npooled %+v\nfresh  %+v", ps, fs)
				}
			})
		}
	}
}
