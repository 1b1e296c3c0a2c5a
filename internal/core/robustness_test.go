package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/check"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

func TestSpecValidate(t *testing.T) {
	base := Spec{CC: "bbr", Duration: time.Second}
	for _, good := range []Spec{
		base,
		{CC: "bbr"},             // zero duration means the default
		{Duration: time.Second}, // empty CC means cubic
		{CC: "bbr", Duration: time.Second, Interval: time.Microsecond}, // 1,000,000 reports
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("good spec %+v rejected: %v", good, err)
		}
	}
	bad := []struct {
		name string
		mut  func(*Spec)
	}{
		{"device", func(s *Spec) { s.Device = device.Model(99) }},
		{"cpu", func(s *Spec) { s.CPU = device.Config(99) }},
		{"cc", func(s *Spec) { s.CC = "vegas" }},
		{"cc in list", func(s *Spec) { s.CC = "bbr,vegas" }},
		{"network", func(s *Spec) { s.Network = Network(99) }},
		{"warmup", func(s *Spec) { s.Warmup = 2 * time.Second }},
		{"negative warmup", func(s *Spec) { s.Warmup = -time.Millisecond }},
		{"interval", func(s *Spec) { s.Interval = -time.Second }},
		{"negative duration", func(s *Spec) { s.Duration = -time.Second }},
		{"interval too fine", func(s *Spec) { s.Interval = time.Nanosecond }},
		{"interval too fine for default duration", func(s *Spec) { s.Duration, s.Interval = 0, 9*time.Microsecond }},
		{"stride", func(s *Spec) { s.Stride = -1 }},
		{"fixed cwnd", func(s *Spec) { s.FixedCwnd = -1 }},
		{"fixed pacing rate", func(s *Spec) { s.FixedPacingRate = -units.Mbps }},
		{"send buffer", func(s *Spec) { s.SndBuf = -units.KB }},
		{"workload", func(s *Spec) { s.Workload = apps.Workload{Kind: "bogus"} }},
		{"inject kind", func(s *Spec) { s.Inject = Inject{Kind: "meteor"} }},
		{"inject time", func(s *Spec) { s.Inject = Inject{Kind: InjectPanic, At: -time.Millisecond} }},
		{"tc loss", func(s *Spec) { s.TC = netem.TC{Loss: 1.5} }},
		{"fault", func(s *Spec) {
			s.Faults = faults.Schedule{Events: []faults.Event{faults.Blackout{Duration: -time.Second}}}
		}},
		{"mobility with faults", func(s *Spec) {
			s.Mobility = mobilitySpec(t).Mobility
			s.Faults = faults.Schedule{Events: []faults.Event{faults.Blackout{Duration: time.Millisecond}}}
		}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("invalid spec (%s) passed validation", tc.name)
			}
			// Run must surface the same validation error, not panic.
			if _, err := Run(s); err == nil {
				t.Errorf("Run accepted invalid spec (%s)", tc.name)
			}
		})
	}
}

func TestBlackoutFaultReducesGoodput(t *testing.T) {
	base := Spec{
		CC:       "cubic",
		Network:  Cellular,
		Duration: 4 * time.Second,
		Check:    true,
	}
	clean, err := Run(base)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	dark := base
	dark.Faults = faults.Schedule{Events: []faults.Event{
		faults.Blackout{Start: 1 * time.Second, Duration: 2 * time.Second},
	}}
	faulted, err := Run(dark)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	// Two of four seconds dark: goodput must drop substantially.
	if float64(faulted.Report.Goodput) > 0.75*float64(clean.Report.Goodput) {
		t.Errorf("blackout barely hurt: clean %v faulted %v",
			clean.Report.Goodput, faulted.Report.Goodput)
	}
	if faulted.Report.Goodput == 0 {
		t.Error("connection never recovered after the blackout")
	}
}

func TestFaultedRunDeterministicPerSeed(t *testing.T) {
	spec := Spec{
		CC:       "bbr",
		Network:  Cellular,
		Duration: 3 * time.Second,
		Interval: 100 * time.Millisecond,
		Check:    true,
		Seed:     11,
		Faults: faults.Schedule{Events: []faults.Event{
			faults.BurstLoss{Start: 500 * time.Millisecond, Duration: time.Second,
				GE: netem.GEConfig{PGoodToBad: 0.02, PBadToGood: 0.3, LossBad: 0.7}},
			faults.Handover{At: 2 * time.Second, Outage: 150 * time.Millisecond,
				Rate: 600 * units.Mbps, Delay: 800 * time.Microsecond},
		}},
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Goodput != b.Report.Goodput || a.Report.Retransmits != b.Report.Retransmits {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d",
			a.Report.Goodput, a.Report.Retransmits, b.Report.Goodput, b.Report.Retransmits)
	}
	for i := range a.Report.Intervals {
		if a.Report.Intervals[i] != b.Report.Intervals[i] {
			t.Fatalf("interval %d diverged", i)
		}
	}
}

// TestCheckerCatchesCorruption proves a deliberately corrupted run is caught
// as a structured error — not a panic, not silently wrong data.
func TestCheckerCatchesCorruption(t *testing.T) {
	spec := Spec{
		CC:       "cubic",
		Duration: 2 * time.Second,
		Check:    true,
		Inject:   Inject{Kind: InjectCorruptInflight, At: 500 * time.Millisecond},
	}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("corrupted run returned no error")
	}
	var ce *check.Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *check.Error: %v", err, err)
	}
	found := false
	for _, v := range ce.Violations {
		if v.Rule == "inflight/counter" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no inflight/counter violation: %v", err)
	}
	if !strings.Contains(err.Error(), "seed=") {
		t.Errorf("violation lacks run context: %v", err)
	}
}

// TestCheckerPassesAllNetworks runs every network with the checker armed.
func TestCheckerPassesAllNetworks(t *testing.T) {
	for _, net := range []Network{Ethernet, WiFi, Cellular, Cellular5G} {
		for _, ccName := range []string{"cubic", "bbr", "bbr2"} {
			t.Run(net.String()+"/"+ccName, func(t *testing.T) {
				_, err := Run(Spec{
					CC: ccName, Network: net, Conns: 2,
					Duration: 1500 * time.Millisecond, Check: true,
				})
				if err != nil {
					t.Fatalf("checker tripped on a healthy run: %v", err)
				}
			})
		}
	}
}

func TestEventBudgetTrips(t *testing.T) {
	spec := Spec{
		CC:        "cubic",
		Duration:  5 * time.Second,
		MaxEvents: 10_000, // far too few for a 5 s gigabit run
	}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("tiny event budget did not trip")
	}
	var le *sim.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("error is %T, want *sim.LimitError: %v", err, err)
	}
	if le.Processed < 10_000 {
		t.Errorf("tripped after %d events, budget was 10000", le.Processed)
	}
	if !strings.Contains(err.Error(), "last event scheduled") {
		t.Errorf("budget error lacks last-scheduled diagnostics: %v", err)
	}
}

// TestStallReportedNotPanicked: an outage outlasting the 30 s stall watchdog
// must surface as a per-connection error in the report, not an aborted run.
func TestStallReportedNotPanicked(t *testing.T) {
	spec := Spec{
		CC:       "cubic",
		Network:  Cellular,
		Duration: 40 * time.Second,
		Faults: faults.Schedule{Events: []faults.Event{
			// Link goes dark at 1 s and never returns.
			faults.Blackout{Start: time.Second, Duration: 39 * time.Second},
		}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("permanent outage aborted the run: %v", err)
	}
	if len(res.Report.ConnErrors) == 0 {
		t.Fatal("dead connection not reported")
	}
	msg := res.Report.ConnErrors[0].Error()
	if !strings.Contains(msg, "stalled") && !strings.Contains(msg, "gave up") {
		t.Errorf("unexpected failure reason: %v", msg)
	}
}
