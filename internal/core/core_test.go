package core

import (
	"reflect"
	"testing"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/device"
	"mobbr/internal/netem"
	"mobbr/internal/units"
)

// short returns a spec with a short duration for fast integration tests.
func short(spec Spec) Spec {
	spec.Duration = 1500 * time.Millisecond
	spec.Warmup = 300 * time.Millisecond
	return spec
}

func mbps(b float64) float64 { return b / 1e6 }

func TestRunUnknownCC(t *testing.T) {
	if _, err := Run(Spec{CC: "vegas"}); err == nil {
		t.Fatal("expected error for unknown congestion control")
	}
}

func TestFactoriesComplete(t *testing.T) {
	f := Factories()
	for _, name := range []string{"cubic", "bbr", "bbr2"} {
		factory, ok := f[name]
		if !ok {
			t.Fatalf("missing factory %q", name)
		}
		if cc := factory(); cc.Name() != name {
			t.Errorf("factory %q builds %q", name, cc.Name())
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	spec := short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 4, Seed: 42})
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Goodput != b.Report.Goodput {
		t.Errorf("same seed, different goodput: %v vs %v", a.Report.Goodput, b.Report.Goodput)
	}
	if a.Report.Retransmits != b.Report.Retransmits {
		t.Errorf("same seed, different retransmits")
	}
}

func TestSeedsDiffer(t *testing.T) {
	s1 := short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 4, Seed: 1})
	s2 := s1
	s2.Seed = 2
	a, _ := Run(s1)
	b, _ := Run(s2)
	if a.Report.Goodput == b.Report.Goodput {
		t.Log("warning: different seeds produced identical goodput (possible but unlikely)")
	}
}

// TestHeadlineOrdering is the paper's core finding as an invariant: on the
// Low-End configuration with many connections, Cubic must clearly beat BBR,
// while on High-End both must be near line rate.
func TestHeadlineOrdering(t *testing.T) {
	run := func(cfg device.Config, cc string, conns int) float64 {
		t.Helper()
		res, err := Run(short(Spec{CPU: cfg, CC: cc, Conns: conns}))
		if err != nil {
			t.Fatal(err)
		}
		return mbps(float64(res.Report.Goodput))
	}
	lowCubic := run(device.LowEnd, "cubic", 20)
	lowBBR := run(device.LowEnd, "bbr", 20)
	if lowBBR >= lowCubic*0.8 {
		t.Errorf("Low-End 20conns: BBR %.0f not clearly below Cubic %.0f", lowBBR, lowCubic)
	}
	highCubic := run(device.HighEnd, "cubic", 1)
	highBBR := run(device.HighEnd, "bbr", 1)
	if highCubic < 850 || highBBR < 850 {
		t.Errorf("High-End not near line rate: cubic %.0f, bbr %.0f", highCubic, highBBR)
	}
}

// TestPacingOffHelpsGoodputHurtsRTT checks §5.2's two-sided result.
func TestPacingOffHelpsGoodputHurtsRTT(t *testing.T) {
	off := false
	on, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20}))
	if err != nil {
		t.Fatal(err)
	}
	no, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20, PacingOverride: &off}))
	if err != nil {
		t.Fatal(err)
	}
	if no.Report.Goodput <= on.Report.Goodput {
		t.Errorf("pacing-off goodput %v not above pacing-on %v",
			no.Report.Goodput, on.Report.Goodput)
	}
	if no.Report.AvgRTT <= on.Report.AvgRTT {
		t.Errorf("pacing-off RTT %v not above pacing-on %v",
			no.Report.AvgRTT, on.Report.AvgRTT)
	}
}

// TestStrideImprovesConstrainedGoodput checks §6.2: a moderate stride must
// beat stock pacing on a CPU-constrained configuration.
func TestStrideImprovesConstrainedGoodput(t *testing.T) {
	stock, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20}))
	if err != nil {
		t.Fatal(err)
	}
	strided, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20, Stride: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if strided.Report.Goodput <= stock.Report.Goodput {
		t.Errorf("stride 10x goodput %v not above stock %v",
			strided.Report.Goodput, stock.Report.Goodput)
	}
}

// TestCellularParity checks Appendix A.1: over LTE the CC choice must not
// matter much, and no retransmission storm may occur.
func TestCellularParity(t *testing.T) {
	spec := Spec{CPU: device.LowEnd, Device: device.Pixel6, Conns: 5,
		Network: Cellular, Duration: 6 * time.Second, Warmup: time.Second}
	spec.CC = "cubic"
	cu, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.CC = "bbr"
	bb, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cg, bg := mbps(float64(cu.Report.Goodput)), mbps(float64(bb.Report.Goodput))
	if cg < 14 || bg < 14 {
		t.Errorf("LTE goodput collapsed: cubic %.1f, bbr %.1f (want ~18)", cg, bg)
	}
	if ratio := bg / cg; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("LTE parity violated: bbr/cubic = %.2f", ratio)
	}
	if cu.Report.Retransmits > 2000 {
		t.Errorf("cubic LTE retransmission storm: %d", cu.Report.Retransmits)
	}
}

// TestShallowBufferLossContrast checks §5.2.3's sign: without pacing the
// 10-packet buffer must see far more retransmissions.
func TestShallowBufferLossContrast(t *testing.T) {
	off := false
	tc := netem.TC{Rate: 600 * units.Mbps, QueuePackets: 10}
	on, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20, TC: tc}))
	if err != nil {
		t.Fatal(err)
	}
	no, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20, TC: tc, PacingOverride: &off}))
	if err != nil {
		t.Fatal(err)
	}
	if no.Report.Retransmits < on.Report.Retransmits+50 {
		t.Errorf("shallow-buffer retransmits: off=%d on=%d, want off far higher",
			no.Report.Retransmits, on.Report.Retransmits)
	}
}

// TestMasterModuleKnobs drives the §5.1 overrides end to end.
func TestMasterModuleKnobs(t *testing.T) {
	res, err := Run(short(Spec{
		CPU: device.LowEnd, CC: "bbr", Conns: 20,
		FixedCwnd: 70, FixedPacingRate: 16 * units.Mbps, DisableModel: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Pinned to 16 Mbps ×20 = 320 theoretical; pacing overhead keeps it
	// well below, which is the paper's point.
	g := mbps(float64(res.Report.Goodput))
	if g <= 0 || g > 330 {
		t.Errorf("fixed-rate goodput = %.1f, want within (0, 320]", g)
	}
}

func TestWiFiRuns(t *testing.T) {
	res, err := Run(short(Spec{CPU: device.LowEnd, Device: device.Pixel6,
		CC: "bbr2", Conns: 5, Network: WiFi}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Goodput == 0 {
		t.Fatal("WiFi run delivered nothing")
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	agg, err := RunSeeds(short(Spec{CPU: device.HighEnd, CC: "cubic", Conns: 2}), 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Goodput.N() != 3 {
		t.Fatalf("aggregated %d runs, want 3", agg.Goodput.N())
	}
	if len(agg.Runs) != 3 {
		t.Fatalf("kept %d run reports, want 3", len(agg.Runs))
	}
	if mbps := agg.Goodput.Mean() / 1e6; mbps < 500 {
		t.Errorf("High-End cubic mean goodput = %.0f Mbps, suspiciously low", mbps)
	}
}

func TestNetworkString(t *testing.T) {
	for n, want := range map[Network]string{Ethernet: "ethernet", WiFi: "wifi", Cellular: "cellular"} {
		if n.String() != want {
			t.Errorf("%d.String() = %q, want %q", n, n.String(), want)
		}
	}
}

func TestHardwarePacingBeatsStock(t *testing.T) {
	stock, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20}))
	if err != nil {
		t.Fatal(err)
	}
	hw, err := Run(short(Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20, HardwarePacing: true}))
	if err != nil {
		t.Fatal(err)
	}
	if hw.Report.Goodput <= stock.Report.Goodput {
		t.Errorf("hw pacing %v not above stock %v", hw.Report.Goodput, stock.Report.Goodput)
	}
	// The offload must not charge pacing-timer cycles.
	if share := hw.Report.CPUBreakdown["pacing_timer"]; share > 0.001 {
		t.Errorf("hw-offload run still burns %.1f%% on pacing timers", share*100)
	}
	if share := stock.Report.CPUBreakdown["pacing_timer"]; share < 0.1 {
		t.Errorf("stock run shows only %.1f%% pacing-timer share", share*100)
	}
}

func TestFiveGGapReappears(t *testing.T) {
	mk := func(cc string) float64 {
		res, err := Run(Spec{
			Device: device.Pixel6, CPU: device.LowEnd, CC: cc, Conns: 20,
			Network: Cellular5G, SndBuf: units.MB,
			Duration: 3 * time.Second, Warmup: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mbps(float64(res.Report.Goodput))
	}
	cubicG, bbrG := mk("cubic"), mk("bbr")
	if cubicG < 150 {
		t.Errorf("cubic 5G = %.0f, want near the 200Mbps link", cubicG)
	}
	if bbrG > cubicG*0.85 {
		t.Errorf("5G pacing gap missing: bbr %.0f vs cubic %.0f", bbrG, cubicG)
	}
}

func TestCCMixViaCommaList(t *testing.T) {
	res, err := Run(short(Spec{CPU: device.HighEnd, CC: "bbr,cubic", Conns: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.PerConn) != 4 {
		t.Fatalf("per-conn = %d", len(res.Report.PerConn))
	}
	if _, err := Run(short(Spec{CC: "bbr,nope"})); err == nil {
		t.Fatal("bad mix member must error")
	}
}

func TestECNReducesRetransmits(t *testing.T) {
	tc := netem.TC{Rate: 600 * units.Mbps, QueuePackets: 60}
	plain, err := Run(short(Spec{CPU: device.HighEnd, CC: "bbr2", Conns: 20, TC: tc}))
	if err != nil {
		t.Fatal(err)
	}
	tc.ECNThreshold = 15
	ecn, err := Run(short(Spec{CPU: device.HighEnd, CC: "bbr2", Conns: 20, TC: tc}))
	if err != nil {
		t.Fatal(err)
	}
	if ecn.Report.Retransmits*2 > plain.Report.Retransmits && plain.Report.Retransmits > 20 {
		t.Errorf("ECN retransmits %d not well below drop-only %d",
			ecn.Report.Retransmits, plain.Report.Retransmits)
	}
	if float64(ecn.Report.Goodput) < float64(plain.Report.Goodput)*0.9 {
		t.Errorf("ECN goodput %v fell below drop-only %v", ecn.Report.Goodput, plain.Report.Goodput)
	}
}

// TestWorkloadRunEndToEnd: an app workload spec runs through the full core
// pipeline — checker armed, pool on — and reports application stats with a
// deterministic outcome per seed.
func TestWorkloadRunEndToEnd(t *testing.T) {
	for _, wl := range []apps.Workload{
		{Kind: apps.KindReqRep, ReqSize: 64 * units.KB, Think: 10 * time.Millisecond},
		{Kind: apps.KindStream},
	} {
		spec := short(Spec{
			Device:   device.Pixel4,
			CC:       "bbr",
			Conns:    2,
			TC:       netem.TC{Rate: 40 * units.Mbps, Delay: 5 * time.Millisecond},
			Check:    true,
			Seed:     11,
			Workload: wl,
		})
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", wl.Kind, err)
		}
		if res.App == nil {
			t.Fatalf("%s: Result.App is nil for a workload spec", wl.Kind)
		}
		if res.App.Completed == 0 {
			t.Fatalf("%s: no operations completed", wl.Kind)
		}
		if res.App.LatP(99) <= 0 {
			t.Errorf("%s: p99 latency %v, want > 0", wl.Kind, res.App.LatP(99))
		}
		again, err := Run(spec)
		if err != nil {
			t.Fatalf("%s rerun: %v", wl.Kind, err)
		}
		if !reflect.DeepEqual(res.App, again.App) {
			t.Errorf("%s: app stats differ across identical runs", wl.Kind)
		}
		if !reflect.DeepEqual(res.Report, again.Report) {
			t.Errorf("%s: transport reports differ across identical runs", wl.Kind)
		}
	}

	// Bulk specs keep App nil.
	res, err := Run(short(Spec{CC: "cubic", Conns: 1, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.App != nil {
		t.Error("bulk run populated Result.App")
	}
}

// TestWorkloadAggregate: RunSeeds pools latency samples across seeds.
func TestWorkloadAggregate(t *testing.T) {
	spec := short(Spec{CC: "cubic", Conns: 1, Seed: 1,
		TC:       netem.TC{Rate: 40 * units.Mbps, Delay: 5 * time.Millisecond},
		Workload: apps.Workload{Kind: apps.KindReqRep, ReqSize: 64 * units.KB, Think: 10 * time.Millisecond}})
	agg, err := RunSeeds(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.App == nil {
		t.Fatal("Aggregate.App nil for a workload grid point")
	}
	var want int64
	for _, res := range agg.Runs {
		want += res.App.Completed
	}
	if agg.App.Completed != want {
		t.Fatalf("aggregate completed %d, want %d", agg.App.Completed, want)
	}
	if int64(len(agg.App.LatMs)) != want {
		t.Fatalf("pooled %d latency samples, want %d", len(agg.App.LatMs), want)
	}
}
