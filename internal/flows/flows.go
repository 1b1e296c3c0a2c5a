// Package flows is the million-flow data path workload: an open-loop
// Poisson process of connection arrivals with a heavy-tailed elephant/mice
// size distribution, each flow a pooled stream-mode TCP connection that
// FINs on completion and recycles its state. Where iperf measures a fixed
// handful of bulk connections, flows measures churn: flow-completion-time
// percentiles, peak concurrency, the fast-path share of the flow-table
// cost model, and the leak-audited balance of the conn pool — all with
// per-sample accounting that is O(1) in the number of live flows (the
// run-wide tcp.AggStats counters), so a 100k-flow point samples exactly as
// cheaply as a 1k-flow point.
package flows

import (
	"fmt"
	"math"
	"sort"

	"mobbr/internal/cpumodel"
	"mobbr/internal/stats"
	"mobbr/internal/tcp"
	"mobbr/internal/units"
)

// Config parameterizes the churn workload (core.Spec.Flows).
type Config struct {
	// ArrivalRate is the open-loop Poisson connection arrival rate in
	// flows per second (default 1000). Arrivals are independent of
	// completions — under overload the live set saturates at MaxLive and
	// excess arrivals are rejected, like a listen-backlog drop.
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	// MaxLive caps concurrent flows (default 10000). An arrival beyond
	// the cap is counted in Stats.Rejected and dropped.
	MaxLive int `json:"max_live,omitempty"`
	// InitialFlows starts this many flows at t=0 (clamped to MaxLive),
	// so steady-state concurrency is reached without waiting for the
	// arrival process to fill the live set (default 0).
	InitialFlows int `json:"initial_flows,omitempty"`
	// MiceBytes / MiceSigma shape the mice: flow sizes are lognormal,
	// MiceBytes × exp(MiceSigma·N(0,1)) (defaults 20 KB, σ 1.0).
	MiceBytes units.DataSize `json:"mice_bytes,omitempty"`
	MiceSigma float64        `json:"mice_sigma,omitempty"`
	// ElephantShare is the probability a flow is an elephant
	// (default 0.05); elephants draw from a bounded Pareto with shape
	// ParetoAlpha (default 1.3) starting at ElephantMinBytes
	// (default 1 MB), capped at MaxFlowBytes (default 64 MB).
	ElephantShare    float64        `json:"elephant_share,omitempty"`
	ParetoAlpha      float64        `json:"pareto_alpha,omitempty"`
	ElephantMinBytes units.DataSize `json:"elephant_min_bytes,omitempty"`
	MaxFlowBytes     units.DataSize `json:"max_flow_bytes,omitempty"`
	// FlowTableSlots / OffloadThreshold parameterize the
	// fast-path/slow-path flow-table cost model charged per arriving ACK
	// (cpumodel.FlowTable): fast-path capacity (default 1024) and the
	// lookup count after which a flow is offloaded (default 32 — mice
	// complete before they amortize an offload, elephants do not).
	FlowTableSlots   int `json:"flow_table_slots,omitempty"`
	OffloadThreshold int `json:"offload_threshold,omitempty"`
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 1000
	}
	if c.MaxLive <= 0 {
		c.MaxLive = 10000
	}
	if c.MiceBytes <= 0 {
		c.MiceBytes = 20 * units.KB
	}
	if c.MiceSigma <= 0 {
		c.MiceSigma = 1.0
	}
	if c.ElephantShare == 0 {
		c.ElephantShare = 0.05
	}
	if c.ParetoAlpha <= 0 {
		c.ParetoAlpha = 1.3
	}
	if c.ElephantMinBytes <= 0 {
		c.ElephantMinBytes = 1 * units.MB
	}
	if c.MaxFlowBytes <= 0 {
		c.MaxFlowBytes = 64 * units.MB
	}
	if c.FlowTableSlots == 0 {
		c.FlowTableSlots = 1024
	}
	if c.OffloadThreshold == 0 {
		c.OffloadThreshold = 32
	}
	return c
}

// Validate rejects malformed configs (after defaulting).
func (c Config) Validate() error {
	d := c.WithDefaults()
	// Check the raw value: WithDefaults maps non-positive rates to the
	// default, which would let a negative typo through as 1000 flows/sec.
	if c.ArrivalRate < 0 || math.IsNaN(c.ArrivalRate) || math.IsInf(c.ArrivalRate, 0) {
		return fmt.Errorf("flows: bad arrival rate %v", c.ArrivalRate)
	}
	if c.InitialFlows < 0 {
		return fmt.Errorf("flows: negative initial flows %d", c.InitialFlows)
	}
	if c.ElephantShare < 0 || c.ElephantShare > 1 {
		return fmt.Errorf("flows: elephant share %v outside [0,1]", c.ElephantShare)
	}
	if d.ElephantMinBytes > d.MaxFlowBytes {
		return fmt.Errorf("flows: elephant min %v exceeds flow cap %v", d.ElephantMinBytes, d.MaxFlowBytes)
	}
	if c.FlowTableSlots < 0 {
		return fmt.Errorf("flows: negative flow-table slots %d", c.FlowTableSlots)
	}
	if c.OffloadThreshold < 0 {
		return fmt.Errorf("flows: negative offload threshold %d", c.OffloadThreshold)
	}
	return nil
}

// Stats is the churn-level outcome of one run. All values derive from
// virtual time and the engine's seeded randomness, so they are
// byte-deterministic per seed.
type Stats struct {
	// Started counts flows admitted; Completed those whose final byte was
	// cumulatively acknowledged (FIN drained); Failed those the transport
	// declared dead; Rejected arrivals dropped at the MaxLive cap;
	// Canceled flows cut off live by the run horizon.
	Started, Completed, Failed, Rejected, Canceled int64
	// PeakLive is the highest concurrent flow count; AvgLive the sampled
	// mean.
	PeakLive int
	AvgLive  float64
	// FCTms holds one flow-completion time per completed flow, in
	// milliseconds, sorted ascending (arrival to FIN-drained).
	FCTms []float64
	// TombstonedAcks counts late ACKs absorbed after their flow was
	// retired — the churn edge that must never reach a recycled conn.
	TombstonedAcks uint64
	// Orphans counts data packets that arrived for an unregistered flow.
	Orphans uint64
	// Pool is the conn-pool census (Balanced after a clean run).
	Pool tcp.ConnPoolStats
	// FlowTable is the fast-path/slow-path lookup accounting.
	FlowTable cpumodel.FlowTableStats
}

// FCTP returns the p-th percentile (0..100) flow completion time in ms.
func (s *Stats) FCTP(p float64) float64 { return stats.Percentile(s.FCTms, p) }

// Merge returns the fold of many per-seed stats (nil when all are nil):
// counters sum, high-water marks take the max, AvgLive is the plain mean
// across seeds (equal durations), and FCT samples pool so grid quantiles
// have every completed flow behind them.
func Merge(runs []*Stats) *Stats {
	var out *Stats
	n := 0
	for _, r := range runs {
		if r == nil {
			continue
		}
		if out == nil {
			out = &Stats{}
		}
		n++
		out.Started += r.Started
		out.Completed += r.Completed
		out.Failed += r.Failed
		out.Rejected += r.Rejected
		out.Canceled += r.Canceled
		if r.PeakLive > out.PeakLive {
			out.PeakLive = r.PeakLive
		}
		out.AvgLive += r.AvgLive
		out.FCTms = append(out.FCTms, r.FCTms...)
		out.TombstonedAcks += r.TombstonedAcks
		out.Orphans += r.Orphans
		mergePool(&out.Pool, r.Pool)
		mergeTable(&out.FlowTable, r.FlowTable)
	}
	if out != nil {
		out.AvgLive /= float64(n)
		sort.Float64s(out.FCTms)
	}
	return out
}

func mergePool(dst *tcp.ConnPoolStats, s tcp.ConnPoolStats) {
	dst.Created += s.Created
	dst.Gets += s.Gets
	dst.Reuses += s.Reuses
	dst.Puts += s.Puts
	dst.Outstanding += s.Outstanding
	dst.Dying += s.Dying
	dst.Free += s.Free
	if s.OutstandingHW > dst.OutstandingHW {
		dst.OutstandingHW = s.OutstandingHW
	}
}

func mergeTable(dst *cpumodel.FlowTableStats, s cpumodel.FlowTableStats) {
	dst.FastHits += s.FastHits
	dst.SlowHits += s.SlowHits
	dst.Promotions += s.Promotions
	dst.Occupied += s.Occupied
	if s.OccupancyHW > dst.OccupancyHW {
		dst.OccupancyHW = s.OccupancyHW
	}
	if s.Slots > dst.Slots {
		dst.Slots = s.Slots
	}
}
