package repro_test

import (
	"fmt"
	"log"
	"os"
	"time"

	"mobbr/internal/device"
	"mobbr/internal/repro"
)

// run executes every point of e for 6 s of virtual time with one seed,
// exactly as `mobbr grid -exp <id> -dur 6s -seeds 1` does, and returns the
// rows in point order. A failed point prints its FAILED line.
func run(e repro.Experiment) []repro.Row {
	rows, err := repro.RunExperimentResilient(e, repro.RunOpts{Dur: 6 * time.Second, Seeds: 1})
	if err != nil {
		log.Fatal(err)
	}
	repro.WriteFailures(os.Stdout, e, rows)
	return rows
}

// goodput maps each row's point label to its goodput in Mbps.
func goodput(rows []repro.Row) map[string]float64 {
	m := make(map[string]float64, len(rows))
	for _, r := range rows {
		m[r.Point.Label] = r.GoodputMbps
	}
	return m
}

// Why BBR cannot simply turn pacing off (§5.2.3): against a router capped
// at 600 Mbps with a 10-packet queue, unpaced bursts overrun the buffer.
// Goodput rises, but retransmissions explode and RTT doubles — pacing is
// doing real congestion-control work. The paper reports retransmissions
// jumping from 37 to ~13,500 over its 5-minute runs.
func ExampleShallowBuffer() {
	for _, r := range run(repro.ShallowBuffer()) {
		fmt.Printf("%-10s goodput %5.1f Mbps  retransmits %4.0f  rtt %.2f ms\n",
			r.Point.Label, r.GoodputMbps, r.Retransmits, r.RTTms)
	}
	// Output:
	// pacing-on  goodput 131.4 Mbps  retransmits    0  rtt 2.54 ms
	// pacing-off goodput 234.3 Mbps  retransmits 2609  rtt 5.63 ms
}

// The Appendix A.1 control experiment: over an LTE uplink (≈18 Mbps) the
// path, not the CPU, is the bottleneck, so BBR and Cubic perform the same
// even on a Low-End Pixel 6.
func ExampleFigure9() {
	mbps := goodput(run(repro.Figure9()))
	fmt.Println("conns  cubic Mbps  bbr Mbps")
	for _, n := range repro.Conns {
		fmt.Printf("%5d  %10.1f  %8.1f\n",
			n, mbps[fmt.Sprintf("cubic/%d", n)], mbps[fmt.Sprintf("bbr/%d", n)])
	}
	// Output:
	// conns  cubic Mbps  bbr Mbps
	//     1        18.0      18.0
	//     5        18.0      18.0
	//    10        18.0      17.9
	//    20        17.8      17.6
}

// The paper's 5G prediction: "cellular uplinks can reach up to 200 Mbps
// [and then] the pacing problems will become significant". The same
// Low-End Pixel 6 on the LTE grid (Figure9) and the mmWave grid (FiveG):
// on LTE the BBR/Cubic ratio stays ≈1; on 5G the capacity is there, the
// CPU is not, and the gap reappears as connections grow.
func ExampleFiveG() {
	lte := goodput(run(repro.Figure9()))
	fiveG := goodput(run(repro.FiveG()))
	fmt.Println("conns  lte bbr/cubic  5g cubic Mbps  5g bbr Mbps  5g bbr/cubic")
	for _, n := range repro.Conns {
		cubic, bbr := fmt.Sprintf("cubic/%d", n), fmt.Sprintf("bbr/%d", n)
		fmt.Printf("%5d  %13.2f  %13.1f  %11.1f  %12.2f\n", n,
			lte[bbr]/lte[cubic], fiveG[cubic], fiveG[bbr], fiveG[bbr]/fiveG[cubic])
	}
	// Output:
	// conns  lte bbr/cubic  5g cubic Mbps  5g bbr Mbps  5g bbr/cubic
	//     1           1.00          200.0        200.0          1.00
	//     5           1.00          199.2        186.7          0.94
	//    10           1.00          200.0        127.5          0.64
	//    20           0.99          199.4        124.7          0.63
}

// The §6.2 pacing-stride sweep on its Low-End slice (Figure 8): larger
// strides amortize the pacing-timer overhead, growing the skb sent per
// pacing period, until the socket buffer saturates and goodput falls
// again. The paper finds 10x best for Low-End; the simulation's optimum
// sits one step to the right (EXPERIMENTS.md, Figure 8).
func ExampleFigure8() {
	e := repro.Figure8()
	var lowEnd []repro.Point
	for _, p := range e.Points {
		if p.Spec.CPU == device.LowEnd {
			lowEnd = append(lowEnd, p)
		}
	}
	e.Points = lowEnd
	best := repro.Row{}
	for _, r := range run(e) {
		fmt.Printf("%-12s goodput %5.1f Mbps  rtt %.2f ms  skb %5.1f Kb  idle %5.2f ms\n",
			r.Point.Label, r.GoodputMbps, r.RTTms, r.SKBKbits, r.IdleMs)
		if r.GoodputMbps > best.GoodputMbps {
			best = r
		}
	}
	fmt.Printf("best: %s\n", best.Point.Label)
	// Output:
	// Low-End 1x   goodput 131.4 Mbps  rtt 2.50 ms  skb  23.9 Kb  idle  1.95 ms
	// Low-End 2x   goodput 131.4 Mbps  rtt 2.04 ms  skb  23.9 Kb  idle  3.09 ms
	// Low-End 5x   goodput 210.7 Mbps  rtt 2.19 ms  skb  61.0 Kb  idle  4.54 ms
	// Low-End 10x  goodput 271.2 Mbps  rtt 2.06 ms  skb 141.3 Kb  idle  9.02 ms
	// Low-End 20x  goodput 291.3 Mbps  rtt 1.97 ms  skb 265.9 Kb  idle 17.14 ms
	// Low-End 50x  goodput 211.4 Mbps  rtt 1.35 ms  skb 392.9 Kb  idle 36.46 ms
	// best: Low-End 20x
}
