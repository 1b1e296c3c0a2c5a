// Package tcp implements the simulated TCP sender and receiver endpoints:
// cwnd/inflight accounting, a SACK scoreboard with dupack-threshold loss
// detection, RTO, delivery-rate sampling per the kernel's tcp_rate.c, TSO
// autosizing and internal pacing, and a receiver that ACKs once per GRO
// bundle: after groFlushGap (90 µs) with no new segment, once groMaxBytes
// (64 KB) have accumulated, and at once on out-of-order data. Every CPU-
// visible operation (skb transmission, per-segment work, ACK processing,
// congestion-control updates, pacing-timer callbacks, RTO handling) is
// charged to the device's cpumodel.CPU, which is how the paper's low-end
// phone bottleneck is reproduced.
package tcp

import (
	"time"

	"mobbr/internal/pacing"
	"mobbr/internal/seg"
	"mobbr/internal/units"
)

// The stack's fixed parameters: the stock Android kernel defaults the paper
// measured on.
const (
	// initialCwnd is the initial congestion window in packets (RFC 6928).
	initialCwnd = 10
	// minRTO and maxRTO clamp the retransmission timeout (Linux defaults).
	minRTO = 200 * time.Millisecond
	maxRTO = 60 * time.Second
	// stallTimeout arms the per-connection watchdog: a connection with
	// outstanding work but no delivery progress for this long is declared
	// dead and reported through Stats().Failed instead of spinning forever.
	stallTimeout = 30 * time.Second
	// dupThresh is the SACK/dupack reordering threshold.
	dupThresh = 3
)

// Config parameterizes a connection.
type Config struct {
	// SndBuf is the socket send buffer (default 256 KB); it caps the
	// congestion window at SndBuf/MSS packets, standing in for the
	// send-buffer/receive-window limit, and is reported by the memory
	// experiment (§7.1.1).
	SndBuf units.DataSize
	// Pacing configures the internal pacer. Pacing.Enabled is forced on
	// when the congestion module wants pacing (BBR), unless
	// PacingOverride says otherwise.
	Pacing pacing.Config
	// PacingOverride, when non-nil, forces pacing on or off regardless
	// of the congestion module — the §5.2 master-module knob.
	PacingOverride *bool
	// AppBytes limits the bytes the application writes; 0 means an
	// unbounded bulk source (iPerf3 default).
	AppBytes units.DataSize
}

func (c Config) withDefaults() Config {
	if c.SndBuf <= 0 {
		c.SndBuf = 256 * units.KB
	}
	return c
}

// maxCwnd is the congestion window cap in packets: the send buffer's worth
// of full segments.
func (c *Config) maxCwnd() int { return int(c.SndBuf / seg.MSS) }
