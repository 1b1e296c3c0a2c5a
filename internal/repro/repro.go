// Package repro defines one constructor per table and figure of the paper's
// evaluation, returning ready-to-run core.Specs together with the values the
// paper reports. `mobbr grid` and the benchmark's grid_paper workload
// (go run ./bench) drive these to regenerate every experiment;
// EXPERIMENTS.md records paper-vs-measured.
package repro

import (
	"fmt"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/mobility"
	"mobbr/internal/netem"
	"mobbr/internal/units"
)

// Point is one cell of a figure or table: a spec plus the paper's value
// (when the paper states one; 0 means "shown in a figure, value not given
// numerically").
type Point struct {
	// Label names the cell, e.g. "bbr 20conns Low-End".
	Label string
	// Spec is the experiment to run.
	Spec core.Spec
	// PaperMbps is the goodput the paper reports, when stated.
	PaperMbps float64
	// PaperRTTms is the RTT the paper reports, when stated.
	PaperRTTms float64
	// FaultEnd is when an injected fault releases the link (recovery grid
	// only). A point that sets it reports pre-fault goodput and the time
	// from here back to 90% of it.
	FaultEnd time.Duration
}

// Experiment is a named set of points reproducing one table or figure.
type Experiment struct {
	// ID is the paper anchor, e.g. "fig2", "table2".
	ID string
	// Title describes what the experiment shows.
	Title string
	// Points are the cells, in presentation order.
	Points []Point
	// Compiled is the replayed trace every point's Spec.Mobility shares
	// (trace grid only); its segments head the per-segment table.
	Compiled *mobility.Compiled
}

// Conns is the connection sweep the paper uses throughout.
var Conns = []int{1, 5, 10, 20}

// Strides is the pacing-stride sweep of §6.2.
var Strides = []float64{1, 2, 5, 10, 20, 50}

// baseSpec returns the common Ethernet/Pixel 4 spec.
func baseSpec(cfg device.Config, ccName string, conns int) core.Spec {
	return core.Spec{
		Device:  device.Pixel4,
		CPU:     cfg,
		CC:      ccName,
		Conns:   conns,
		Network: core.Ethernet,
	}
}

// Figure2 is the headline result: BBR vs Cubic goodput on the Pixel 4 over
// Ethernet for all four CPU configurations and 1–20 connections.
func Figure2() Experiment {
	paper := map[string]float64{
		// The values the text states explicitly.
		"Low-End/cubic/1":  364,
		"Low-End/cubic/20": 310,
		"Low-End/bbr/1":    325,
		"Low-End/bbr/20":   138,
		"High-End/bbr/1":   915,
		"High-End/cubic/1": 930,
	}
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.MidEnd, device.Default, device.HighEnd} {
		for _, cc := range []string{"cubic", "bbr"} {
			for _, n := range Conns {
				key := fmt.Sprintf("%s/%s/%d", cfg, cc, n)
				pts = append(pts, Point{
					Label:     key,
					Spec:      baseSpec(cfg, cc, n),
					PaperMbps: paper[key],
				})
			}
		}
	}
	return Experiment{ID: "fig2", Title: "BBR vs Cubic goodput, Pixel 4, Ethernet (Figure 2)", Points: pts}
}

// Figure3 repeats the Low-End sweep on the Pixel 6: BBR ends ~45% below
// Cubic at 20 connections.
func Figure3() Experiment {
	var pts []Point
	for _, cc := range []string{"cubic", "bbr"} {
		for _, n := range Conns {
			s := baseSpec(device.LowEnd, cc, n)
			s.Device = device.Pixel6
			pts = append(pts, Point{
				Label: fmt.Sprintf("%s/%d", cc, n),
				Spec:  s,
			})
		}
	}
	return Experiment{ID: "fig3", Title: "Pixel 6 Low-End goodput (Figure 3)", Points: pts}
}

// BBR2WiFi is §4.2: BBRv2 vs BBR vs Cubic on the Pixel 6 over WiFi,
// Low-End, 20 connections. The paper reports Cubic→BBR −23% and
// Cubic→BBRv2 −20%.
func BBR2WiFi() Experiment {
	var pts []Point
	for _, cc := range []string{"cubic", "bbr", "bbr2"} {
		s := baseSpec(device.LowEnd, cc, 20)
		s.Device = device.Pixel6
		s.Network = core.WiFi
		pts = append(pts, Point{Label: cc, Spec: s})
	}
	return Experiment{ID: "bbr2", Title: "BBRv2 on Pixel 6 WiFi, Low-End, 20 conns (§4.2)", Points: pts}
}

// ModelOff is §5.1.1: BBR with its model-update disabled and a Cubic-like
// fixed cwnd of 70 packets still underperforms.
func ModelOff() Experiment {
	withModel := baseSpec(device.LowEnd, "bbr", 20)
	noModel := withModel
	noModel.DisableModel = true
	noModel.FixedCwnd = 70
	noModel.FixedPacingRate = 16 * units.Mbps // theoretical per-conn need (§5.1.2)
	cubic := baseSpec(device.LowEnd, "cubic", 20)
	return Experiment{
		ID:    "modeloff",
		Title: "BBR model disabled, fixed cwnd=70 (§5.1.1)",
		Points: []Point{
			{Label: "bbr (stock)", Spec: withModel, PaperMbps: 138},
			{Label: "bbr model-off cwnd=70 rate=16Mbps", Spec: noModel},
			{Label: "cubic", Spec: cubic, PaperMbps: 310},
		},
	}
}

// FixedPacingRate is §5.1.2: sweeping the per-connection pacing rate with
// fixed cwnd; only ≈140 Mbps/conn reaches Cubic's goodput even though
// 16 Mbps/conn would suffice in theory.
func FixedPacingRate() Experiment {
	rates := []units.Bandwidth{
		16 * units.Mbps, 20 * units.Mbps, 40 * units.Mbps,
		70 * units.Mbps, 100 * units.Mbps, 140 * units.Mbps,
	}
	var pts []Point
	for _, r := range rates {
		s := baseSpec(device.LowEnd, "bbr", 20)
		s.FixedCwnd = 70
		s.FixedPacingRate = r
		pts = append(pts, Point{Label: r.String() + "/conn", Spec: s})
	}
	pts = append(pts, Point{Label: "cubic reference", Spec: baseSpec(device.LowEnd, "cubic", 20), PaperMbps: 310})
	return Experiment{ID: "fixedrate", Title: "Fixed per-connection pacing rate sweep (§5.1.2)", Points: pts}
}

// Figure4 compares BBR goodput with pacing on vs off at 20 connections for
// Low-End (2.7×), Mid-End (+67%) and Default (+91%).
func Figure4() Experiment {
	off := false
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.MidEnd, device.Default} {
		on := baseSpec(cfg, "bbr", 20)
		no := on
		no.PacingOverride = &off
		pts = append(pts,
			Point{Label: fmt.Sprintf("%s pacing-on", cfg), Spec: on},
			Point{Label: fmt.Sprintf("%s pacing-off", cfg), Spec: no},
		)
	}
	pts[0].PaperMbps = 138
	pts[1].PaperMbps = 373 // 2.7× of 138
	return Experiment{ID: "fig4", Title: "Effect of pacing on BBR goodput, 20 conns (Figure 4)", Points: pts}
}

// Figure5 is the pacing on/off comparison across connection counts at
// Low-End: +14% at 1 conn, +19% at 5, 2.7× at 20.
func Figure5() Experiment {
	off := false
	var pts []Point
	for _, n := range Conns {
		on := baseSpec(device.LowEnd, "bbr", n)
		no := on
		no.PacingOverride = &off
		pts = append(pts,
			Point{Label: fmt.Sprintf("%dconns pacing-on", n), Spec: on},
			Point{Label: fmt.Sprintf("%dconns pacing-off", n), Spec: no},
		)
	}
	return Experiment{ID: "fig5", Title: "Pacing on/off across connection counts, Low-End (Figure 5)", Points: pts}
}

// Figure6 enables pacing for Cubic (§5.2.2): internal-rate pacing and a
// 20 Mbps fixed rate collapse goodput (147 Mbps at 20 Mbps×20 conns);
// 140 Mbps ≈ unpaced.
func Figure6() Experiment {
	on := true
	def := baseSpec(device.LowEnd, "cubic", 20)

	paced := def
	paced.PacingOverride = &on

	rate20 := paced
	rate20.FixedPacingRate = 20 * units.Mbps

	rate140 := paced
	rate140.FixedPacingRate = 140 * units.Mbps

	return Experiment{
		ID:    "fig6",
		Title: "Cubic with pacing enabled, Low-End, 20 conns (Figure 6)",
		Points: []Point{
			{Label: "default (no pacing)", Spec: def, PaperMbps: 310},
			{Label: "pacing on (internal rate)", Spec: paced},
			{Label: "pacing 20Mbps/conn", Spec: rate20, PaperMbps: 147},
			{Label: "pacing 140Mbps/conn", Spec: rate140},
		},
	}
}

// Figure7 measures RTT with pacing on vs off at 20 connections: RTT more
// than doubles when pacing is disabled.
func Figure7() Experiment {
	off := false
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.MidEnd, device.Default} {
		on := baseSpec(cfg, "bbr", 20)
		no := on
		no.PacingOverride = &off
		pts = append(pts,
			Point{Label: fmt.Sprintf("%s pacing-on", cfg), Spec: on},
			Point{Label: fmt.Sprintf("%s pacing-off", cfg), Spec: no},
		)
	}
	return Experiment{ID: "fig7", Title: "RTT with and without pacing, 20 conns (Figure 7)", Points: pts}
}

// ShallowBuffer is §5.2.3: a 10-packet router buffer. Disabling pacing
// raises retransmissions from 37 to ~13,500. The router is rate-limited so
// that unpaced bursts actually overrun the shallow queue (the paper's tc
// knob; see DESIGN.md).
func ShallowBuffer() Experiment {
	off := false
	tc := netem.TC{Rate: 600 * units.Mbps, QueuePackets: 10}
	on := baseSpec(device.LowEnd, "bbr", 20)
	on.TC = tc
	no := on
	no.PacingOverride = &off
	return Experiment{
		ID:    "shallow",
		Title: "10-packet shallow buffer: retransmissions (§5.2.3)",
		Points: []Point{
			{Label: "pacing-on", Spec: on},
			{Label: "pacing-off", Spec: no},
		},
	}
}

// Figure8 sweeps the pacing stride {1,2,5,10,20,50} for Low-End, Mid-End
// and Default at 20 connections: best ≈10× for Low-End, ≈5× for
// Mid-End/Default; Default improves from ≈400 to >700 Mbps.
func Figure8() Experiment {
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.MidEnd, device.Default} {
		for _, st := range Strides {
			s := baseSpec(cfg, "bbr", 20)
			s.Stride = st
			pts = append(pts, Point{
				Label: fmt.Sprintf("%s %gx", cfg, st),
				Spec:  s,
			})
		}
	}
	return Experiment{ID: "fig8", Title: "Pacing-stride sweep (Figure 8)", Points: pts}
}

// Table2 samples per-pacing-period behaviour under the Default
// configuration at 20 connections for each stride: skb length, idle time,
// expected vs actual throughput, RTT.
func Table2() Experiment {
	paperGoodput := map[float64]float64{1: 430, 2: 580, 5: 717, 10: 416, 20: 185, 50: 75.6}
	paperRTT := map[float64]float64{1: 3.7, 2: 2.2, 5: 1.4, 10: 1.1, 20: 1.3, 50: 1.4}
	var pts []Point
	for _, st := range Strides {
		s := baseSpec(device.Default, "bbr", 20)
		s.Stride = st
		pts = append(pts, Point{
			Label:      fmt.Sprintf("%gx", st),
			Spec:       s,
			PaperMbps:  paperGoodput[st],
			PaperRTTms: paperRTT[st],
		})
	}
	return Experiment{ID: "table2", Title: "Stride anatomy under Default config (Table 2)", Points: pts}
}

// Figure9 is Appendix A.1: over LTE the uplink is bandwidth-limited
// (<20 Mbps) and BBR ≈ Cubic for every connection count.
func Figure9() Experiment {
	var pts []Point
	for _, cc := range []string{"cubic", "bbr"} {
		for _, n := range Conns {
			s := baseSpec(device.LowEnd, cc, n)
			s.Device = device.Pixel6
			s.Network = core.Cellular
			pts = append(pts, Point{Label: fmt.Sprintf("%s/%d", cc, n), Spec: s})
		}
	}
	return Experiment{ID: "fig9", Title: "Cellular (LTE) goodput: BBR ≈ Cubic (Figure 9)", Points: pts}
}

// Memory is §7.1.1: RAM (socket-buffer occupancy) is unaffected by pacing
// strides under Low-End, 20 connections.
func Memory() Experiment {
	var pts []Point
	for _, st := range []float64{1, 10, 50} {
		s := baseSpec(device.LowEnd, "bbr", 20)
		s.Stride = st
		pts = append(pts, Point{Label: fmt.Sprintf("%gx", st), Spec: s})
	}
	return Experiment{ID: "memory", Title: "Memory use across strides (§7.1.1)", Points: pts}
}

// Apps is the application-workload grid: instead of bulk iperf uploads,
// every point drives an application over each connection (internal/apps)
// — closed-loop request/response clients
// and an ABR-video-like chunked stream — and reports request-latency
// quantiles and rebuffering alongside goodput. The paper measures bulk
// transfer; this grid asks the follow-up question its §6 CPU findings
// raise: what do BBR's pacing costs do to application-level latency on
// weak cores, and does the stride mitigation help there too?
func Apps() Experiment {
	appConns := 6
	var pts []Point
	// Request/response across the CPU extremes and both CCs.
	for _, cfg := range []device.Config{device.LowEnd, device.Default} {
		for _, cc := range []string{"cubic", "bbr"} {
			s := baseSpec(cfg, cc, appConns)
			s.Workload = apps.Workload{Kind: apps.KindReqRep}
			pts = append(pts, Point{
				Label: fmt.Sprintf("reqrep %s/%s", cfg, cc),
				Spec:  s,
			})
		}
	}
	// Request p99 vs pacing stride on Low-End bbr: the §6.2 stride
	// mitigation viewed through application latency (EXPERIMENTS.md table).
	for _, st := range []float64{5, 10, 20} {
		s := baseSpec(device.LowEnd, "bbr", appConns)
		s.Stride = st
		s.Workload = apps.Workload{Kind: apps.KindReqRep}
		pts = append(pts, Point{
			Label: fmt.Sprintf("reqrep Low-End/bbr %gx", st),
			Spec:  s,
		})
	}
	// Chunked streaming: same CPU×CC square plus the stride mitigation.
	for _, cfg := range []device.Config{device.LowEnd, device.Default} {
		for _, cc := range []string{"cubic", "bbr"} {
			s := baseSpec(cfg, cc, appConns)
			s.Workload = apps.Workload{Kind: apps.KindStream}
			pts = append(pts, Point{
				Label: fmt.Sprintf("stream %s/%s", cfg, cc),
				Spec:  s,
			})
		}
	}
	{
		s := baseSpec(device.LowEnd, "bbr", appConns)
		s.Stride = 10
		s.Workload = apps.Workload{Kind: apps.KindStream}
		pts = append(pts, Point{Label: "stream Low-End/bbr 10x", Spec: s})
	}
	// The title predates the apps layer's callback rewrite; it is printed
	// and archived, so it keeps its wording.
	return Experiment{ID: "apps", Title: "Application workloads: request latency and rebuffering", Points: pts}
}

// Scale is the million-flow data path grid: open-loop Poisson flow churn
// with a heavy-tailed elephant/mice size mix through the pooled conn
// lifecycle (internal/flows), reporting flow-completion-time percentiles,
// peak concurrency and the fast-path share of the flow-table cost model.
// The square crosses CC × CPU at 10k live flows; the live sweep holds the
// per-slot turnover fixed while growing the live set 1k→100k (per-sample
// accounting must stay O(1) for the 100k point to fit the run budget); the
// churn sweep holds 10k live and scales the arrival rate 0.5×/2×/8×. It is
// deliberately not part of All() — it measures the harness's data path,
// not a paper figure — and runs with -exp scale.
func Scale() Experiment {
	churn := func(cfg device.Config, ccName string, live int, arrival float64, check bool) core.Spec {
		s := baseSpec(cfg, ccName, 1) // Conns is ignored when Flows is set
		s.Flows = &flows.Config{
			ArrivalRate:  arrival,
			MaxLive:      live,
			InitialFlows: live, // steady-state concurrency from t=0
			// 4 KB mice: at 10k live flows sharing a CPU-bound ~400 Mbps,
			// each flow gets ~40 kbps, so a mouse completes in about a
			// second and the live set genuinely turns over within the
			// default 4 s horizon (the stock 20 KB mice would all get cut
			// off by the run end and the churn sweep would show nothing).
			MiceBytes: 4 * units.KB,
		}
		s.Check = check
		return s
	}
	const live10k = 10_000
	// base is the arrival rate at 10k live: 0.2 flows/s per slot, the same
	// per-slot turnover the live sweep holds fixed across 1k→100k.
	const base = 2000.0
	var pts []Point
	for _, cfg := range []device.Config{device.LowEnd, device.Default} {
		for _, ccName := range []string{"cubic", "bbr"} {
			// The invariant checker (strided audits + O(1) pool
			// cross-check) arms on the Low-End cells, where CPU contention
			// makes lifecycle bugs likeliest.
			pts = append(pts, Point{
				Label: fmt.Sprintf("10k %s/%s", cfg, ccName),
				Spec:  churn(cfg, ccName, live10k, base, cfg == device.LowEnd),
			})
		}
	}
	for _, live := range []int{1_000, 100_000} {
		pts = append(pts, Point{
			Label: fmt.Sprintf("%dk Low-End/bbr", live/1000),
			Spec:  churn(device.LowEnd, "bbr", live, float64(live)/5, false),
		})
	}
	for _, mult := range []float64{0.5, 2, 8} {
		pts = append(pts, Point{
			Label: fmt.Sprintf("churn %gx 10k Low-End/bbr", mult),
			Spec:  churn(device.LowEnd, "bbr", live10k, base*mult, mult == 8),
		})
	}
	return Experiment{ID: "scale", Title: "Million-flow churn: FCT percentiles, pool reuse, flow-table fast path", Points: pts}
}

// Calibration is the 17 anchor cells the CPU cost model was fitted
// against, each with the goodput the paper states for it. Re-run it after
// touching cpumodel costs, pacing sizing or CC constants. Like Scale it
// resolves by id only (-exp calibrate), so All() stays the paper grids.
func Calibration() Experiment {
	off := false
	var pts []Point
	for _, a := range []struct {
		model   device.Model
		cfg     device.Config
		cc      string
		conns   int
		unpaced bool
		paper   float64
	}{
		{device.Pixel4, device.HighEnd, "cubic", 1, false, 930},
		{device.Pixel4, device.HighEnd, "bbr", 1, false, 915},
		{device.Pixel4, device.HighEnd, "bbr", 20, false, 915},
		{device.Pixel4, device.LowEnd, "cubic", 1, false, 364},
		{device.Pixel4, device.LowEnd, "cubic", 20, false, 310},
		{device.Pixel4, device.LowEnd, "bbr", 1, false, 325},
		{device.Pixel4, device.LowEnd, "bbr", 5, false, 290},
		{device.Pixel4, device.LowEnd, "bbr", 20, false, 138},
		{device.Pixel4, device.LowEnd, "bbr", 20, true, 373},
		{device.Pixel4, device.MidEnd, "cubic", 20, false, 800},
		{device.Pixel4, device.MidEnd, "bbr", 20, false, 430},
		{device.Pixel4, device.Default, "cubic", 20, false, 680},
		{device.Pixel4, device.Default, "bbr", 20, false, 430},
		{device.Pixel4, device.Default, "bbr", 1, false, 780},
		{device.Pixel4, device.Default, "cubic", 1, false, 900},
		{device.Pixel6, device.LowEnd, "bbr", 20, false, 140},
		{device.Pixel6, device.LowEnd, "cubic", 20, false, 255},
	} {
		s := baseSpec(a.cfg, a.cc, a.conns)
		s.Device = a.model
		label := fmt.Sprintf("%s/%s/%s/%d", a.model, a.cfg, a.cc, a.conns)
		if a.unpaced {
			s.PacingOverride = &off
			label += " pacing-off"
		}
		pts = append(pts, Point{Label: label, Spec: s, PaperMbps: a.paper})
	}
	return Experiment{ID: "calibrate", Title: "Cost-model calibration anchors vs the paper's stated goodput", Points: pts}
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		Figure2(), Figure3(), BBR2WiFi(), ModelOff(), FixedPacingRate(),
		Figure4(), Figure5(), Figure6(), Figure7(), ShallowBuffer(),
		Figure8(), Table2(), Figure9(), Memory(),
		// Extensions beyond the paper's evaluation (§7 open questions).
		FairnessVsStride(), HardwarePacing(), FiveG(), ECN(), Apps(),
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	// The scale, recovery and calibration grids resolve by id only:
	// keeping them out of All() keeps its 19 paper-and-extension grids (and
	// the benchmark that runs them) unchanged. The trace grid needs a trace:
	// NewTraceExperiment.
	switch id {
	case "scale":
		return Scale(), nil
	case "recovery":
		return Recovery(), nil
	case "calibrate":
		return Calibration(), nil
	}
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("repro: unknown experiment %q", id)
}

// DefaultDuration is the simulated transfer time used when regenerating
// experiments (the paper runs 5 minutes; the simulation reaches steady
// state well within a few seconds).
const DefaultDuration = 4 * time.Second

// DefaultSeeds is how many seeds each point is averaged over (the paper
// averages ≥10 physical runs).
const DefaultSeeds = 3
