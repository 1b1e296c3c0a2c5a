package tuner_test

import (
	"fmt"
	"log"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/tuner"
)

// Search for the best pacing stride automatically — the §7.1.2 future
// work. HillClimb doubles the stride from the stock 1x while goodput
// improves, then refines around the best, with the simulator as the
// objective; the RTT budget keeps the winner within 2x of stock pacing's
// RTT, so it keeps pacing's latency benefit.
func ExampleHillClimb() {
	spec := core.Spec{
		Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr",
		Conns: 20, Network: core.Ethernet,
	}
	res, err := tuner.HillClimb(spec, tuner.Options{
		Seeds:     1,
		Duration:  3 * time.Second,
		RTTBudget: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range res.Trials {
		fmt.Printf("stride %4.1fx  goodput %5.1f Mbps  rtt %.2f ms\n", tr.Stride, tr.GoodputMbps, tr.RTTms)
	}
	fmt.Printf("best: %.1fx, %.2fx over stock pacing\n", res.Best.Stride, res.Improvement())
	// Output:
	// stride  1.0x  goodput 131.3 Mbps  rtt 2.55 ms
	// stride  2.0x  goodput 131.4 Mbps  rtt 2.06 ms
	// stride  4.0x  goodput 166.8 Mbps  rtt 1.34 ms
	// stride  8.0x  goodput 251.8 Mbps  rtt 2.10 ms
	// stride 13.5x  goodput 281.4 Mbps  rtt 1.83 ms
	// stride 16.0x  goodput 269.5 Mbps  rtt 1.91 ms
	// stride 22.6x  goodput 272.9 Mbps  rtt 1.68 ms
	// stride 32.0x  goodput 254.1 Mbps  rtt 1.52 ms
	// best: 13.5x, 2.14x over stock pacing
}
