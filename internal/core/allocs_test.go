package core

import (
	"io"
	"runtime"
	"testing"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/netem"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// TestSteadyStateAllocs pins the transport hot path's allocation-free steady
// state (DESIGN §5, "Memory lifecycle"). Each case runs the same spec for T
// and for 3T and charges the difference in runtime Mallocs to the extra 2T of
// simulated time, so construction, pool warm-up and report building cancel
// and only what the steady state allocates per simulated second is left. The
// budgets carry roughly 5× headroom over the measured figure (logged with
// -v), which is 1–2 orders of magnitude below what one allocation per ACK,
// per app chunk, per out-of-order packet or per blocking operation costs —
// re-introducing any of those fails the case loudly. The churn case is
// budgeted per started flow instead (the difference divided by the flows the
// extra 2T admitted): a flow costs its congestion module and, when it outgrows
// the inline scoreboard buffers, their heap replacements — one closure,
// method value or per-flow record more and the case fails.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes malloc counts")
	}
	cases := []struct {
		name   string
		spec   Spec
		t      time.Duration
		budget float64 // mallocs per simulated second; per started flow when spec.Flows is set
	}{
		{"paced bulk", Spec{Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr",
			Conns: 20, Network: Ethernet}, 4 * time.Second, 200},
		{"unpaced bulk", Spec{CPU: device.HighEnd, CC: "cubic",
			Conns: 20, Network: Ethernet}, time.Second, 400},
		{"lossy SACK mix", Spec{CPU: device.Default, CC: "bbr,cubic,bbr2,reno",
			Conns: 8, Network: WiFi, TC: netem.TC{Loss: 0.005}}, 2 * time.Second, 1000},
		{"reqrep apps", Spec{CPU: device.LowEnd, CC: "bbr", Conns: 8,
			Workload: apps.Workload{Kind: apps.KindReqRep}}, 2 * time.Second, 1000},
		{"churn", Spec{CPU: device.LowEnd, CC: "bbr", Network: Ethernet,
			Flows: &flows.Config{ArrivalRate: 800, MaxLive: 2000, InitialFlows: 2000,
				MiceBytes: 4 * units.KB}}, 2 * time.Second, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// mallocs runs the spec for d and returns what it allocated and
			// what the allocations are charged to: simulated seconds, or
			// flows started.
			mallocs := func(d time.Duration) (objects uint64, work float64) {
				spec := tc.spec
				spec.Seed = 1
				spec.Duration = d
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err := Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				work = d.Seconds()
				if res.Flows != nil {
					work = float64(res.Flows.Started)
				}
				return after.Mallocs - before.Mallocs, work
			}
			mallocs(tc.t) // lazy one-time initialisation, outside both measurements
			short, shortWork := mallocs(tc.t)
			long, longWork := mallocs(3 * tc.t)
			unit := "simulated second"
			if tc.spec.Flows != nil {
				unit = "started flow"
			}
			per := (float64(long) - float64(short)) / (longWork - shortWork)
			t.Logf("%.2f mallocs per %s (T=%v: %d, 3T: %d), budget %.0f",
				per, unit, tc.t, short, long, tc.budget)
			if per > tc.budget {
				t.Errorf("steady state allocates %.2f objects per %s, budget %.0f", per, unit, tc.budget)
			}
		})
	}
}

// TestMinRunAllocs pins what every grid point pays before it simulates
// anything: a 20-connection run of 1 ms of virtual time is build and teardown
// only (the bench's core.min_run_allocs). The connections are opened from the
// run's arena, all twenty slots in one allocation, by the one initialiser the
// conn pool uses, so a closure per callback, a heap object per scoreboard
// entry or an allocation per connection coming back shows here first.
func TestMinRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes malloc counts")
	}
	spec := Spec{Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr", Conns: 20,
		Network: Ethernet, Duration: time.Millisecond, Seed: 1}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 130 // measured 99; 147 when each connection was allocated alone, 448 before a connection was one object
	t.Logf("%.0f allocations per minimal run, budget %d", allocs, budget)
	if allocs > budget {
		t.Errorf("a 20-connection 1 ms run allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestBulkRunBytes budgets everything a whole unpaced 20-connection bulk run
// allocates, in bytes: the bench's bulk_linerate spec at 1 simulated second,
// construction, warm-up and report included. Its largest item is scoreboard
// entries, which the run's connections draw from the one infoPool of their
// arena, so its 64-byte slab grows to the peak of what all twenty hold at
// once. When each connection had an entry slab of its own, each one doubled
// from 16 to 128 entries for its own peak and the run allocated 533 KB.
func TestBulkRunBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes allocation sizes")
	}
	spec := Spec{CPU: device.HighEnd, CC: "cubic", Conns: 20, Network: Ethernet,
		Duration: time.Second, Seed: 1}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // lazy one-time initialisation, outside the measurement
	allocated := run()
	const budget = 450_000 // measured 408,712 B
	t.Logf("%d bytes allocated by the run, budget %d", allocated, budget)
	if allocated > budget {
		t.Errorf("a 20-connection unpaced bulk run of 1 s allocates %d bytes, budget %d", allocated, budget)
	}
}

// TestObservedRunBytesPerEvent budgets what the event log costs per event it
// keeps, on the benchmark's observed run (lossy four-CC mix, checker and all
// three telemetry planes on). Like TestSteadyStateAllocs it runs the spec
// for T and 3T and charges the difference in allocated bytes to the
// difference in kept events. An event is written into the log once, as a
// variable-length record, so the figure is the record's size plus the
// steady-state allocations of the run around it; a log that re-copies
// itself as it grows, or stores 88-byte Event structs, pays several times
// the budget. Measured 14.4 B (94.8 B with a log of Event structs).
func TestObservedRunBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes allocation sizes")
	}
	spec := Spec{CPU: device.Default, CC: "bbr,cubic,bbr2,reno", Conns: 8,
		Network: WiFi, TC: netem.TC{Loss: 0.005}, Interval: time.Second, Seed: 1,
		Check: true, Telemetry: telemetry.Config{Trace: true, Metrics: true, Profile: true}}
	run := func(d time.Duration) (allocated uint64, events int) {
		spec.Duration = d
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, len(res.Events.Events())
	}
	const T = 4 * time.Second
	run(T) // lazy one-time initialisation, outside both measurements
	short, shortEvents := run(T)
	long, longEvents := run(3 * T)
	per := (float64(long) - float64(short)) / float64(longEvents-shortEvents)
	const budget = 32
	t.Logf("%.1f bytes per kept event (T=%v: %d B, %d events; 3T: %d B, %d events), budget %d",
		per, T, short, shortEvents, long, longEvents, budget)
	if per > budget {
		t.Errorf("the observed run allocates %.1f bytes per kept event, budget %d", per, budget)
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
