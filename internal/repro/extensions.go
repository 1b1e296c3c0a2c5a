package repro

import (
	"fmt"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/netem"
	"mobbr/internal/units"
)

// The experiments below go beyond the paper's evaluation into the open
// questions its §7 discussion raises. They use the same Point/Experiment
// machinery so `mobbr grid` and the benchmark can drive them.

// FairnessVsStride probes §7.1.3: "pacing strides may increase the
// unfairness of BBR". Each point reports per-connection goodput whose
// Jain index the harness scores (iperf.Report.Fairness).
func FairnessVsStride() Experiment {
	var pts []Point
	for _, st := range []float64{1, 5, 10, 50} {
		s := baseSpec(device.LowEnd, "bbr", 20)
		s.Stride = st
		pts = append(pts, Point{Label: fmt.Sprintf("bbr %gx", st), Spec: s})
	}
	pts = append(pts, Point{Label: "cubic (unpaced ref)", Spec: baseSpec(device.LowEnd, "cubic", 20)})
	return Experiment{
		ID:     "fairness",
		Title:  "Jain fairness across pacing strides, Low-End, 20 conns (§7.1.3)",
		Points: pts,
	}
}

// HardwarePacing probes §7.1.4: offloading per-send timers to the NIC as
// the alternative to strides — pacing's gaps without its CPU cost.
func HardwarePacing() Experiment {
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.MidEnd, device.Default} {
		stock := baseSpec(cfg, "bbr", 20)
		hw := stock
		hw.HardwarePacing = true
		stride := stock
		stride.Stride = 10
		pts = append(pts,
			Point{Label: fmt.Sprintf("%s stock", cfg), Spec: stock},
			Point{Label: fmt.Sprintf("%s stride-10x", cfg), Spec: stride},
			Point{Label: fmt.Sprintf("%s hw-offload", cfg), Spec: hw},
		)
	}
	return Experiment{
		ID:     "hwpacing",
		Title:  "Hardware pacing offload vs stride vs stock (§7.1.4)",
		Points: pts,
	}
}

// FiveG probes the prediction of §4/Appendix A.1: a ~200 Mbps 5G mmWave
// uplink provides enough capacity that the pacing bottleneck, invisible on
// LTE, reappears on low-end hardware.
func FiveG() Experiment {
	var pts []Point
	for _, cc := range []string{"cubic", "bbr"} {
		for _, n := range Conns {
			s := baseSpec(device.LowEnd, cc, n)
			s.Device = device.Pixel6
			s.Network = core.Cellular5G
			// A 200 Mbps × ~20 ms path needs a bigger send buffer
			// than the LAN default; Android's wmem auto-tuning
			// would grow it to about this.
			s.SndBuf = units.MB
			pts = append(pts, Point{Label: fmt.Sprintf("%s/%d", cc, n), Spec: s})
		}
	}
	return Experiment{
		ID:     "fiveg",
		Title:  "5G mmWave uplink (~200 Mbps): does the pacing gap reappear?",
		Points: pts,
	}
}

// ECN probes the v2 feature set the paper's backport carries but its
// testbed never enables: with AQM marking at the router, BBRv2 (and
// classic-ECN Cubic) should keep goodput while retransmissions vanish —
// the polite version of the shallow-buffer experiment.
func ECN() Experiment {
	// High-End device so the 600 Mbps router cap — not the CPU — is the
	// bottleneck; congestion then happens where the AQM can see it.
	tc := netem.TC{Rate: 600 * units.Mbps, QueuePackets: 60}
	tcECN := tc
	tcECN.ECNThreshold = 15
	var pts []Point
	for _, cc := range []string{"bbr2", "cubic"} {
		plain := baseSpec(device.HighEnd, cc, 20)
		plain.TC = tc
		ecn := plain
		ecn.TC = tcECN
		pts = append(pts,
			Point{Label: cc + " drop-only", Spec: plain},
			Point{Label: cc + " +ecn", Spec: ecn},
		)
	}
	return Experiment{
		ID:     "ecn",
		Title:  "ECN marking vs drop-only AQM, High-End, 20 conns (extension)",
		Points: pts,
	}
}
