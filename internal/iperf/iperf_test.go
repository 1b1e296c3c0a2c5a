package iperf

import (
	"strings"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/cubic"
	"mobbr/internal/cc/reno"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

func newRig(seed int64) (*sim.Engine, *cpumodel.CPU, *netem.Path) {
	eng := sim.New(seed)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 3e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		panic(err)
	}
	return eng, cpu, path
}

func mustNew(t *testing.T, eng *sim.Engine, cpu *cpumodel.CPU, path *netem.Path, cfg Config) *Session {
	t.Helper()
	s, err := New(eng, cpu, path, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestSessionBasics(t *testing.T) {
	eng, cpu, path := newRig(1)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns:    4,
		Duration: time.Second,
		CC:       cubic.Factory(),
	})
	if got := len(sess.Conns()); got != 4 {
		t.Fatalf("conns = %d, want 4", got)
	}
	rep := sess.Run()
	if rep.Goodput == 0 {
		t.Fatal("no goodput")
	}
	if len(rep.PerConn) != 4 {
		t.Fatalf("per-conn entries = %d, want 4", len(rep.PerConn))
	}
	var sum units.Bandwidth
	for _, g := range rep.PerConn {
		if g == 0 {
			t.Error("a connection delivered nothing")
		}
		sum += g
	}
	// Per-connection goodputs must roughly add up to the aggregate
	// (warmup is zero here).
	if ratio := float64(sum) / float64(rep.Goodput); ratio < 0.98 || ratio > 1.02 {
		t.Errorf("per-conn sum / aggregate = %v", ratio)
	}
}

func TestWarmupExcluded(t *testing.T) {
	run := func(warmup time.Duration) units.Bandwidth {
		eng, cpu, path := newRig(1)
		sess := mustNew(t, eng, cpu, path, Config{
			Conns:    1,
			Duration: 2 * time.Second,
			Warmup:   warmup,
			CC:       cubic.Factory(),
		})
		return sess.Run().Goodput
	}
	full := run(0)
	warm := run(500 * time.Millisecond)
	// Excluding the slow-start ramp must not *reduce* measured goodput
	// (rates are equal at steady state; the ramp only drags the mean).
	if warm < full-50*units.Mbps {
		t.Errorf("warmup-excluded goodput %v far below full-run %v", warm, full)
	}
}

func TestPressureScalesWithConns(t *testing.T) {
	// The pressure multiplies every job's service time on an idle core.
	service := func(conns int) time.Duration {
		eng, cpu, path := newRig(1)
		if conns > 0 {
			mustNew(t, eng, cpu, path, Config{Conns: conns, Duration: time.Second, CC: cubic.Factory()})
		}
		return cpu.Submit(cpumodel.OpSegXmit, 3e6, nil)
	}
	bare := service(0)
	if one := service(1); one != bare {
		t.Errorf("1-conn job takes %v, want the unpressured %v", one, bare)
	}
	if twenty := service(20); float64(twenty) <= 1.1*float64(bare) {
		t.Errorf("20-conn job takes %v, want > 1.1 × %v", twenty, bare)
	}
}

func TestConfigValidation(t *testing.T) {
	eng, cpu, path := newRig(1)
	if _, err := New(eng, cpu, path, Config{Conns: 1, Duration: time.Second}); err == nil {
		t.Fatal("expected error without CC factory")
	}
}

func TestReportFieldsPopulated(t *testing.T) {
	eng, cpu, path := newRig(2)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns:    2,
		Duration: 2 * time.Second,
		CC:       cubic.Factory(),
	})
	rep := sess.Run()
	if rep.AvgRTT <= 0 {
		t.Error("AvgRTT not sampled")
	}
	if rep.MinRTT <= 0 {
		t.Error("MinRTT missing")
	}
	if rep.CPUUtil <= 0 || rep.CPUUtil > 1 {
		t.Errorf("CPUUtil = %v out of range", rep.CPUUtil)
	}
	if rep.MaxBufferOcc <= 0 {
		t.Error("MaxBufferOcc missing")
	}
}

func TestStaggerSpreadsStarts(t *testing.T) {
	eng, cpu, path := newRig(3)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns:    10,
		Duration: time.Second,
		CC:       cubic.Factory(),
	})
	// All connections must still complete and deliver.
	rep := sess.Run()
	for i, g := range rep.PerConn {
		if g == 0 {
			t.Errorf("conn %d delivered nothing", i)
		}
	}
}

// stubPacingCC forces a known pacing rate to exercise pacing-period stats.
type stubPacingCC struct{}

func (stubPacingCC) Name() string { return "stub" }
func (stubPacingCC) Init(c cc.Conn) {
	c.SetCwnd(200)
	c.SetPacingRate(50 * units.Mbps)
}
func (stubPacingCC) OnAck(c cc.Conn, rs *cc.RateSample) {
	c.SetCwnd(200)
	c.SetPacingRate(50 * units.Mbps)
}
func (stubPacingCC) OnEvent(cc.Conn, cc.Event) {}
func (stubPacingCC) AckCost() float64          { return 100 }
func (stubPacingCC) WantsPacing() bool         { return true }

func TestPacingStatsInReport(t *testing.T) {
	eng, cpu, path := newRig(4)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns:    1,
		Duration: 2 * time.Second,
		CC:       func() cc.CongestionControl { return stubPacingCC{} },
	})
	rep := sess.Run()
	if rep.AvgSKB == 0 || rep.AvgIdle == 0 {
		t.Fatalf("pacing stats missing: skb=%v idle=%v", rep.AvgSKB, rep.AvgIdle)
	}
	if rep.ExpectedTx == 0 {
		t.Error("expected-throughput model not computed")
	}
	// Eq. 1: expected = skb/idle (×1 conn) should be near the 50Mbps
	// pacing rate.
	exp := float64(rep.ExpectedTx) / 1e6
	if exp < 25 || exp > 100 {
		t.Errorf("expected tx = %.1f Mbps, want near 50", exp)
	}
	if rep.PacingTimerEvents == 0 {
		t.Error("no pacing timer events recorded")
	}
}

func TestIntervalSeries(t *testing.T) {
	eng, cpu, path := newRig(5)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns:    2,
		Duration: 2 * time.Second,
		Interval: 500 * time.Millisecond,
		CC:       cubic.Factory(),
	})
	rep := sess.Run()
	if len(rep.Intervals) != 4 {
		t.Fatalf("intervals = %d, want 4", len(rep.Intervals))
	}
	var sum float64
	for i, iv := range rep.Intervals {
		if iv.End-iv.Start != 500*time.Millisecond {
			t.Errorf("interval %d spans %v", i, iv.End-iv.Start)
		}
		if iv.Goodput <= 0 {
			t.Errorf("interval %d has zero goodput", i)
		}
		sum += float64(iv.Goodput)
	}
	// Interval means must average to the whole-run goodput.
	mean := sum / float64(len(rep.Intervals))
	if ratio := mean / float64(rep.Goodput); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("interval mean / total = %v", ratio)
	}
	var buf strings.Builder
	if err := rep.WriteIntervalsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 5 { // header + 4 rows
		t.Errorf("CSV lines = %d, want 5\n%s", lines, buf.String())
	}
}

func TestFairnessInReport(t *testing.T) {
	eng, cpu, path := newRig(6)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns: 4, Duration: 2 * time.Second, CC: cubic.Factory(),
	})
	rep := sess.Run()
	if rep.Fairness.Jain <= 0 || rep.Fairness.Jain > 1 {
		t.Errorf("jain = %v out of range", rep.Fairness.Jain)
	}
}

func TestCCMixAlternates(t *testing.T) {
	eng, cpu, path := newRig(7)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns:    4,
		Duration: time.Second,
		CCMix:    []cc.Factory{cubic.Factory(), reno.Factory()},
	})
	for i, c := range sess.Conns() {
		want := "cubic"
		if i%2 == 1 {
			want = "reno"
		}
		if got := c.CC().Name(); got != want {
			t.Errorf("conn %d runs %q, want %q", i, got, want)
		}
	}
	rep := sess.Run()
	if rep.Goodput == 0 {
		t.Fatal("mixed session delivered nothing")
	}
}

func TestCPUBreakdownInReport(t *testing.T) {
	eng, cpu, path := newRig(8)
	sess := mustNew(t, eng, cpu, path, Config{
		Conns: 2, Duration: time.Second,
		CC: func() cc.CongestionControl { return stubPacingCC{} },
	})
	rep := sess.Run()
	if len(rep.CPUBreakdown) == 0 {
		t.Fatal("no CPU breakdown")
	}
	var total float64
	for op, f := range rep.CPUBreakdown {
		if f <= 0 || f > 1 {
			t.Errorf("breakdown[%s] = %v out of range", op, f)
		}
		total += f
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("breakdown sums to %v, want 1", total)
	}
	if rep.CPUBreakdown["pacing_timer"] == 0 {
		t.Error("paced run shows no pacing_timer share")
	}
}

func TestScore(t *testing.T) {
	rep := Score([]units.Bandwidth{10 * units.Mbps, 10 * units.Mbps, 20 * units.Mbps})
	if rep.Jain >= 1 || rep.Jain < 0.8 {
		t.Errorf("jain = %v, want in [0.8, 1)", rep.Jain)
	}
}
