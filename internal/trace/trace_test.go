package trace

import (
	"strings"
	"testing"
	"time"

	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/cc/cubic"
	"mobbr/internal/cpumodel"
	"mobbr/internal/device"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
)

func TestBBRModeTrajectory(t *testing.T) {
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 2.8e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := iperf.New(eng, cpu, path, iperf.Config{
		Conns: 1, Duration: 3 * time.Second, TCP: tcp.Config{}, CC: bbr.Factory(),
	})
	rec := New(eng, sess.Conns(), time.Millisecond)
	rec.Start()
	sess.Run()

	modes := rec.Modes(0)
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

// TestBBR2ModeLabels holds the BBRv2 label table to the "MODE/PHASE"
// concatenation it replaced, entry by entry and on a live connection
// sampled every millisecond, and requires that sampling the mode allocates
// nothing.
func TestBBR2ModeLabels(t *testing.T) {
	for m := range bbr2Modes {
		for p, got := range bbr2Modes[m] {
			if want := bbrv2.Mode(m).String() + "/" + bbrv2.Phase(p).String(); got != want {
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

func TestSamplesMonotoneAndComplete(t *testing.T) {
	eng := sim.New(2)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 2.8e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := iperf.New(eng, cpu, path, iperf.Config{
		Conns: 3, Duration: time.Second, TCP: tcp.Config{}, CC: cubic.Factory(),
	})
	rec := New(eng, sess.Conns(), 100*time.Millisecond)
	rec.Start()
	sess.Run()

	all := rec.Samples()
	// Ticks at t=0 (initial state), 100ms, …, 1000ms inclusive.
	if len(all) != 3*11 {
		t.Fatalf("samples = %d, want 33 (3 conns × 11 ticks incl. t=0)", len(all))
	}
	if all[0].At != 0 {
		t.Errorf("first sample at %v, want t=0", all[0].At)
	}
	var last time.Duration
	for _, s := range all {
		if s.At < last {
			t.Fatal("samples out of time order")
		}
		last = s.At
		if s.Mode != "" {
			t.Errorf("cubic reported a BBR mode %q", s.Mode)
		}
		if s.CwndPkts <= 0 {
			t.Errorf("non-positive cwnd sample")
		}
	}
	if got := len(rec.ConnSamples(1)); got != 11 {
		t.Errorf("conn 1 samples = %d, want 11", got)
	}
}

func TestWriteCSV(t *testing.T) {
	eng := sim.New(3)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 2.8e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := iperf.New(eng, cpu, path, iperf.Config{
		Conns: 1, Duration: 500 * time.Millisecond, TCP: tcp.Config{}, CC: bbr.Factory(),
	})
	rec := New(eng, sess.Conns(), 100*time.Millisecond)
	rec.Start()
	sess.Run()

	var buf strings.Builder
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rec.Samples()) {
		t.Fatalf("CSV lines = %d, want %d", len(lines), 1+len(rec.Samples()))
	}
	if !strings.HasPrefix(lines[0], "t_s,conn,") {
		t.Errorf("bad header: %q", lines[0])
	}
	hasMode := strings.Contains(buf.String(), "STARTUP") ||
		strings.Contains(buf.String(), "PROBE_BW") ||
		strings.Contains(buf.String(), "DRAIN")
	if !hasMode {
		t.Errorf("CSV lacks BBR mode column content:\n%s", buf.String())
	}
}

func TestDefaultPeriod(t *testing.T) {
	eng := sim.New(4)
	rec := New(eng, nil, 0)
	if rec.period != 50*time.Millisecond {
		t.Errorf("default period = %v, want 50ms", rec.period)
	}
}

// Pixel-device smoke: tracing works against the full device stack too.
func TestTraceOnDeviceStack(t *testing.T) {
	eng := sim.New(5)
	cpu, app := device.NewCPUs(eng, device.Pixel4, device.LowEnd)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := iperf.New(eng, cpu, path, iperf.Config{
		Conns: 2, Duration: time.Second, TCP: tcp.Config{}, CC: bbr.Factory(), AppCPU: app,
	})
	rec := New(eng, sess.Conns(), 50*time.Millisecond)
	rec.Start()
	sess.Run()
	if len(rec.Samples()) == 0 {
		t.Fatal("no samples on device stack")
	}
}
