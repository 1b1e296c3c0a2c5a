package core

import (
	"io"
	"runtime"
	"testing"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/device"
	"mobbr/internal/netem"
	"mobbr/internal/telemetry"
)

// TestSteadyStateAllocs pins the transport hot path's allocation-free steady
// state (DESIGN §5, "Memory lifecycle"). Each case runs the same spec for T
// and for 3T and charges the difference in runtime Mallocs to the extra 2T of
// simulated time, so construction, pool warm-up and report building cancel
// and only what the steady state allocates per simulated second is left. The
// budgets carry roughly 5× headroom over the measured figure (logged with
// -v), which is 1–2 orders of magnitude below what one allocation per ACK,
// per app chunk, per out-of-order packet or per blocking operation costs —
// re-introducing any of those fails the case loudly.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes malloc counts")
	}
	cases := []struct {
		name   string
		spec   Spec
		t      time.Duration
		budget float64 // mallocs per simulated second
	}{
		{"paced bulk", Spec{Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr",
			Conns: 20, Network: Ethernet}, 4 * time.Second, 200},
		{"unpaced bulk", Spec{CPU: device.HighEnd, CC: "cubic",
			Conns: 20, Network: Ethernet}, time.Second, 400},
		{"lossy SACK mix", Spec{CPU: device.Default, CC: "bbr,cubic,bbr2,reno",
			Conns: 8, Network: WiFi, TC: netem.TC{Loss: 0.005}}, 2 * time.Second, 1000},
		{"reqrep apps", Spec{CPU: device.LowEnd, CC: "bbr", Conns: 8,
			Workload: apps.Workload{Kind: apps.KindReqRep}}, 2 * time.Second, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mallocs := func(d time.Duration) uint64 {
				spec := tc.spec
				spec.Seed = 1
				spec.Duration = d
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				if _, err := Run(spec); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			mallocs(tc.t) // lazy one-time initialisation, outside both measurements
			short, long := mallocs(tc.t), mallocs(3*tc.t)
			perSimS := (float64(long) - float64(short)) / (2 * tc.t).Seconds()
			t.Logf("%.0f mallocs/sim-s (T=%v: %d, 3T: %d), budget %.0f",
				perSimS, tc.t, short, long, tc.budget)
			if perSimS > tc.budget {
				t.Errorf("steady state allocates %.0f objects per simulated second, budget %.0f",
					perSimS, tc.budget)
			}
		})
	}
}

// TestSteadyStateAllocsJSONL budgets the trace export: events are encoded
// through one reused record and buffer, so serialising a run's event log
// costs a handful of allocations, not two per event.
func TestSteadyStateAllocsJSONL(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes malloc counts")
	}
	res, err := Run(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 4, Network: Ethernet,
		Duration: time.Second, Seed: 1, Telemetry: telemetry.Config{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	events := len(res.Events.Events())
	if events < 1000 {
		t.Fatalf("traced run recorded only %d events", events)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := res.Events.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d events, %.0f allocations per export", events, allocs)
	if allocs > float64(events)/20 {
		t.Errorf("WriteJSONL of %d events allocates %.0f objects, want far fewer than one per event", events, allocs)
	}
}
