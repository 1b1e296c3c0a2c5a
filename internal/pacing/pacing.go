// Package pacing implements TCP's internal packet pacing as the paper's §6.1
// describes it: after each socket-buffer (skb) transmission the connection
// idles for idleTime = skbLen/pacingRate (Eq. 1), enforced by a timer whose
// expiry re-schedules the socket — the per-event overhead that throttles
// low-end phones. The paper's contribution, the pacing stride (Eq. 2),
// scales idleTime by a constant so the sender paces less often but moves
// stride× more data per event.
//
// skb sizing follows tcp_tso_autosize: aim for about 1 ms of data at the
// current pacing rate, never less than minTSOSegs segments, never more than
// maxSKB bytes (the socket-buffer/TSQ ceiling that Table 2 of the paper
// shows the stride saturating against).
package pacing

import (
	"time"

	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// skb sizing constants.
const (
	// autosizeTarget is how much data TSO autosizing aims to put in one
	// skb, expressed as time at the pacing rate (~1 ms, the kernel's
	// rate >> 10 heuristic).
	autosizeTarget = time.Millisecond
	// minTSOSegs matches sysctl tcp_min_tso_segs.
	minTSOSegs = 2
	// maxSKB is the per-send ceiling: the kernel's 64 KB GSO
	// limit. The ≈15 KB skb plateau the paper's Table 2 measures at 20
	// connections is not this ceiling — it emerges from the small
	// per-connection congestion windows (2×BDP of a ~30 Mbps share),
	// which bound how many segments one send may carry.
	maxSKB = 64 * units.KB
)

// Config parameterizes a connection's pacer.
type Config struct {
	// Enabled turns internal pacing on. BBR/BBRv2 require it; Cubic runs
	// unpaced unless the experiment forces it (paper §5.2.2).
	Enabled bool
	// Stride is the paper's pacing stride (Eq. 2); values < 1 are
	// treated as 1 (stock kernel behaviour).
	Stride float64
	// FixedRate, when nonzero, overrides the connection's pacing rate —
	// the master-module knob from §5.1.2.
	FixedRate units.Bandwidth
	// HardwareOffload models the fine-grained NIC pacing the BBR authors
	// suggest (§7.1.4): the inter-skb gaps are still enforced, but the
	// per-event hrtimer/tasklet work leaves the CPU entirely.
	HardwareOffload bool
}

func (c Config) withDefaults() Config {
	if c.Stride < 1 {
		c.Stride = 1
	}
	return c
}

// Pacer tracks one connection's pacing schedule. It is pure bookkeeping:
// the transport asks when it may send and reports what it sent; the
// transport owns the actual timers and CPU charging.
type Pacer struct {
	cfg Config

	// nextSendAt is when the pacing gate reopens.
	nextSendAt time.Duration

	// Sampled statistics for the paper's Table 2.
	periods   uint64
	sumSKB    float64
	sumIdle   time.Duration
	timerArms uint64

	// Telemetry instruments (nil = disabled, the default).
	skbHist *telemetry.Histogram
	gapHist *telemetry.Histogram
}

// New returns a pacer with cfg (zero fields take defaults).
func New(cfg Config) *Pacer {
	return &Pacer{cfg: cfg.withDefaults()}
}

// Config returns the pacer's effective configuration.
func (p *Pacer) Config() Config { return p.cfg }

// Reset re-initializes the pacer in place for a recycled connection's next
// flow: configuration is replaced, all sampled state clears, and any
// attached instruments carry over.
func (p *Pacer) Reset(cfg Config) {
	*p = Pacer{cfg: cfg.withDefaults(), skbHist: p.skbHist, gapHist: p.gapHist}
}

// SetInstruments attaches telemetry histograms: skb observes bytes per send
// (the send quantum), gap observes the pacing idle time in ms. nil
// instruments no-op, so the hot path pays only nil-checks when disabled.
func (p *Pacer) SetInstruments(skb, gap *telemetry.Histogram) {
	p.skbHist, p.gapHist = skb, gap
}

// Enabled reports whether pacing is on.
func (p *Pacer) Enabled() bool { return p.cfg.Enabled }

// Rate resolves the pacing rate to enforce: the fixed override if set,
// otherwise the connection-supplied rate.
func (p *Pacer) Rate(connRate units.Bandwidth) units.Bandwidth {
	if p.cfg.FixedRate > 0 {
		return p.cfg.FixedRate
	}
	return connRate
}

// SKBSegs returns the number of MSS segments for one skb. With pacing
// enabled the size is TSO-autosized to ~1 ms at the pacing rate; with
// pacing disabled the sender bursts up to the GSO limit (cwnd and backlog
// cap it at the transport layer), which is what "effectively bursted
// through the network" means in the paper's §5.2.1.
func (p *Pacer) SKBSegs(rate units.Bandwidth, mss units.DataSize) int {
	maxSegs := max(int(maxSKB/mss), minTSOSegs)
	if !p.cfg.Enabled || rate <= 0 {
		return maxSegs
	}
	segs := int(rate.BytesIn(autosizeTarget) / mss)
	return min(max(segs, minTSOSegs), maxSegs)
}

// CanSendAt reports whether the pacing gate is open at now, and if not, how
// long until it opens.
func (p *Pacer) CanSendAt(now time.Duration) (bool, time.Duration) {
	if !p.cfg.Enabled || now >= p.nextSendAt {
		return true, 0
	}
	return false, p.nextSendAt - now
}

// OnSKBSent records a transmission of skbBytes at rate finishing at now and
// computes the idle time before the next send: Eq. 1 scaled by the stride
// (Eq. 2). It returns the idle duration (0 when pacing is disabled or the
// rate is unknown).
func (p *Pacer) OnSKBSent(now time.Duration, skbBytes units.DataSize, rate units.Bandwidth) time.Duration {
	p.periods++
	p.sumSKB += float64(skbBytes)
	p.skbHist.Observe(float64(skbBytes))
	if !p.cfg.Enabled || rate <= 0 {
		return 0
	}
	idle := time.Duration(float64(rate.TimeToSend(skbBytes)) * p.cfg.Stride)
	p.nextSendAt = now + idle
	p.sumIdle += idle
	p.gapHist.Observe(float64(idle) / 1e6)
	return idle
}

// TimerArmed records that the transport armed a pacing timer (one future
// OpPacingTimer CPU charge).
func (p *Pacer) TimerArmed() { p.timerArms++ }

// Stats returns the per-pacing-period averages the paper's Table 2 reports.
type Stats struct {
	// Periods is the number of skb sends observed.
	Periods uint64
	// AvgSKB is the mean socket-buffer length per period.
	AvgSKB units.DataSize
	// AvgIdle is the mean pacing idle time per period.
	AvgIdle time.Duration
	// TimerArms counts pacing-timer activations.
	TimerArms uint64
}

// Stats returns a snapshot of the sampled pacing behaviour.
func (p *Pacer) Stats() Stats {
	s := Stats{Periods: p.periods, TimerArms: p.timerArms}
	if p.periods > 0 {
		s.AvgSKB = units.DataSize(p.sumSKB / float64(p.periods))
		s.AvgIdle = time.Duration(float64(p.sumIdle) / float64(p.periods))
	}
	return s
}
