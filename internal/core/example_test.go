package core_test

import (
	"fmt"
	"log"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/netem"
	"mobbr/internal/units"
)

// The paper's headline result (Figure 2a): Cubic and BBR uploading over 20
// parallel connections from a Low-End Pixel 4. The paper measures Cubic ≈
// 310 Mbps and BBR ≈ 138 Mbps: BBR's packet pacing costs a timer event per
// data send, which a 576 MHz LITTLE core cannot keep up with across 20
// sockets.
func ExampleRun() {
	for _, cc := range []string{"cubic", "bbr"} {
		res, err := core.Run(core.Spec{
			Device:   device.Pixel4,
			CPU:      device.LowEnd,
			CC:       cc,
			Conns:    20,
			Duration: 2 * time.Second,
			Warmup:   400 * time.Millisecond,
			Network:  core.Ethernet,
		})
		if err != nil {
			log.Fatal(err)
		}
		r := res.Report
		fmt.Printf("%-5s goodput %5.1f Mbps  rtt %.2f ms  cpu %.0f%%\n",
			cc, float64(r.Goodput)/1e6, float64(r.AvgRTT)/1e6, r.CPUUtil*100)
	}
	// Output:
	// cubic goodput 313.2 Mbps  rtt 8.22 ms  cpu 100%
	// bbr   goodput 131.3 Mbps  rtt 2.57 ms  cpu 100%
}

// BBR and Cubic sharing one bottleneck — the inter-protocol side of
// §7.1.3's fairness concern. A comma-separated CC assigns algorithms
// round-robin, so even connections run BBR and odd ones Cubic. The
// High-End CPU leaves the 600 Mbps router, not pacing overhead, to decide
// the shares. At stock pacing BBR v1 starves loss-based Cubic (cf. Ware et
// al., IMC '19); with a 10x stride BBR's long idle gaps hand the queue to
// Cubic and its own bursts take the drops.
func ExampleRun_coexist() {
	for _, stride := range []float64{1, 10} {
		res, err := core.Run(core.Spec{
			Device:   device.Pixel4,
			CPU:      device.HighEnd,
			CC:       "bbr,cubic",
			Conns:    10,
			Duration: 6 * time.Second,
			Warmup:   time.Second,
			Network:  core.Ethernet,
			TC:       netem.TC{Rate: 600 * units.Mbps, QueuePackets: 128},
			Stride:   stride,
		})
		if err != nil {
			log.Fatal(err)
		}
		var bbr, cubic float64
		for i, g := range res.Report.PerConn {
			if i%2 == 0 {
				bbr += float64(g) / 1e6
			} else {
				cubic += float64(g) / 1e6
			}
		}
		fmt.Printf("stride %2.0fx: bbr %5.1f Mbps, cubic %5.1f Mbps, bbr share %.0f%%\n",
			stride, bbr, cubic, 100*bbr/(bbr+cubic))
	}
	// Output:
	// stride  1x: bbr 540.2 Mbps, cubic  16.3 Mbps, bbr share 97%
	// stride 10x: bbr   6.6 Mbps, cubic 592.8 Mbps, bbr share 1%
}
