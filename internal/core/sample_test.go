package core

import (
	"testing"
	"time"

	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/cpumodel"
	"mobbr/internal/device"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/telemetry"
)

// tracedSamples runs spec with the trace bus on and returns its KindSample
// events.
func tracedSamples(t *testing.T, spec Spec) []telemetry.Event {
	t.Helper()
	spec.Telemetry = telemetry.Config{Trace: true}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Events.Filter(telemetry.KindSample)
}

// modeTrajectory returns the distinct modes one connection's samples show,
// in first-seen order.
func modeTrajectory(samples []telemetry.Event, conn int) []string {
	var out []string
	for _, s := range samples {
		if s.Conn == conn && s.New != "" && (len(out) == 0 || out[len(out)-1] != s.New) {
			out = append(out, s.New)
		}
	}
	return out
}

func TestBBRModeTrajectory(t *testing.T) {
	modes := modeTrajectory(tracedSamples(t, Spec{
		Device: device.Pixel4, CPU: device.Default, CC: "bbr",
		Conns: 1, Network: Ethernet, Duration: 3 * time.Second,
	}), 0)
	if len(modes) < 2 {
		t.Fatalf("mode trajectory too short: %v", modes)
	}
	if modes[0] != "STARTUP" {
		t.Errorf("first mode = %q, want STARTUP", modes[0])
	}
	sawProbeBW := false
	for _, m := range modes {
		if m == "PROBE_BW" {
			sawProbeBW = true
		}
	}
	if !sawProbeBW {
		t.Errorf("never reached PROBE_BW: %v", modes)
	}
	// STARTUP must not recur after leaving (only PROBE_RTT may re-enter
	// it, and only if the pipe was never filled).
	left := false
	for _, m := range modes {
		if m != "STARTUP" {
			left = true
		} else if left {
			t.Errorf("STARTUP recurred after full pipe: %v", modes)
		}
	}
}

// TestSampleModeUnderMasterModule: a module wrapped by the master module
// (§5.1's pinned cwnd) still reports its state machine's mode.
func TestSampleModeUnderMasterModule(t *testing.T) {
	samples := tracedSamples(t, Spec{
		Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr",
		Conns: 1, Network: Ethernet, Duration: time.Second, FixedCwnd: 70,
	})
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	if got := samples[0].New; got != "STARTUP" {
		t.Errorf("first sample's mode = %q, want STARTUP", got)
	}
}

// TestBBR2ModeLabels holds the BBRv2 label table to the "MODE/PHASE"
// concatenation it replaced, entry by entry and on a live connection
// sampled every millisecond, and requires that sampling the mode allocates
// nothing.
func TestBBR2ModeLabels(t *testing.T) {
	for m := range bbr2Modes {
		for p, got := range bbr2Modes[m] {
			if want := bbr.Mode(m).String() + "/" + bbrv2.Phase(p).String(); got != want {
				t.Errorf("bbr2Modes[%d][%d] = %q, want %q", m, p, got, want)
			}
		}
	}

	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 2.8e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := iperf.New(eng, cpu, path, iperf.Config{
		Conns: 1, Duration: 3 * time.Second, TCP: tcp.Config{}, CC: bbrv2.Factory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sess.Conns()[0]
	m := c.CC().(*bbrv2.BBRv2)
	seen := map[string]bool{}
	var check func()
	check = func() {
		got, want := ccMode(c), m.Mode().String()+"/"+m.CurrentPhase().String()
		if got != want {
			t.Fatalf("at %v: ccMode = %q, want %q", eng.Now(), got, want)
		}
		seen[got] = true
		eng.Schedule(time.Millisecond, check)
	}
	eng.Schedule(0, check)
	sess.Run()
	if !seen["STARTUP/DOWN"] || !seen["PROBE_BW/CRUISE"] {
		t.Errorf("labels seen %v, want STARTUP/DOWN and PROBE_BW/CRUISE among them", seen)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = ccMode(c) }); allocs != 0 {
		t.Errorf("ccMode on a BBRv2 connection allocated %.1f objects", allocs)
	}
}

// TestSamplesMonotoneAndComplete: on the Pixel 4 device stack every
// connection is sampled at t=0 and then every samplePeriod through the end
// of the run, in time order.
func TestSamplesMonotoneAndComplete(t *testing.T) {
	all := tracedSamples(t, Spec{
		Device: device.Pixel4, CPU: device.LowEnd, CC: "cubic",
		Conns: 3, Network: Ethernet, Duration: time.Second, Seed: 2,
	})
	// Ticks at t=0 (initial state), 50ms, …, 1000ms inclusive.
	const ticks = int(time.Second/samplePeriod) + 1
	if len(all) != 3*ticks {
		t.Fatalf("samples = %d, want %d (3 conns × %d ticks incl. t=0)", len(all), 3*ticks, ticks)
	}
	if all[0].At != 0 {
		t.Errorf("first sample at %v, want t=0", all[0].At)
	}
	perConn := map[int]int{}
	for i, s := range all {
		if want := time.Duration(i/3) * samplePeriod; s.At != want {
			t.Fatalf("sample %d at %v, want %v", i, s.At, want)
		}
		perConn[s.Conn]++
		if s.New != "" {
			t.Errorf("cubic reported a BBR mode %q", s.New)
		}
		if s.Value <= 0 {
			t.Errorf("non-positive cwnd sample")
		}
	}
	if got := perConn[1]; got != ticks {
		t.Errorf("conn 1 samples = %d, want %d", got, ticks)
	}
}

// TestTraceOnDeviceStack: tracing works against the full Pixel 4 Low-End
// device stack with BBR, every connection gets sampled, and each sample
// carries the module's mode.
func TestTraceOnDeviceStack(t *testing.T) {
	all := tracedSamples(t, Spec{
		Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr",
		Conns: 2, Network: Ethernet, Duration: time.Second, Seed: 5,
	})
	if len(all) == 0 {
		t.Fatal("no samples on device stack")
	}
	perConn := map[int]int{}
	for _, s := range all {
		perConn[s.Conn]++
		if s.New == "" {
			t.Errorf("conn %d sample at %v has no BBR mode", s.Conn, s.At)
		}
	}
	for conn := 0; conn < 2; conn++ {
		if perConn[conn] == 0 {
			t.Errorf("conn %d never sampled", conn)
		}
	}
}
