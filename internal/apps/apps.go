// Package apps runs application workloads over the simulated stack via
// simnet's virtual-time sockets: a closed-loop request/response workload
// (per-request latency histograms) and a chunked live-streaming upload
// (bitrate ladder, remote playout buffer, rebuffer accounting). Both ride
// the shared iperf harness — staggered starts, sampling, warmup, pooled
// reclaim — so the paper's bulk upload becomes one workload among three,
// and the pacing-stride sensitivity finally shows up in application
// metrics (request p99, rebuffer ratio) instead of only goodput.
package apps

import (
	"fmt"
	"sort"
	"time"

	"mobbr/internal/stats"
	"mobbr/internal/units"
)

// Workload kinds. The empty kind is the iperf bulk upload (no apps layer).
const (
	// KindReqRep is the closed-loop request/response workload: each
	// client uploads ReqSize, waits for a RespSize response, thinks, and
	// repeats. Latency is write-start to response-read.
	KindReqRep = "reqrep"
	// KindStream is the chunked live-streaming upload: a new chunk is
	// captured every Chunk, encoded at a ladder bitrate chosen by a
	// throughput-EWMA ABR, uploaded in order, and acknowledged; a remote
	// viewer model plays the stream out and accounts stalls. Latency is
	// capture to acknowledged delivery.
	KindStream = "stream"
)

// Workload parameterizes one application workload (core.Spec.Workload).
// The zero value (empty Kind) means the plain iperf bulk upload.
type Workload struct {
	// Kind selects the workload: "", KindReqRep or KindStream.
	Kind string
	// ReqSize / RespSize / Think parameterize KindReqRep. RespSize also
	// sizes KindStream's per-chunk acknowledgement.
	ReqSize  units.DataSize
	RespSize units.DataSize
	Think    time.Duration
	// Chunk / Ladder / Startup parameterize KindStream: chunk duration,
	// ascending bitrate ladder, and how many chunks the viewer buffers
	// before playout starts.
	Chunk   time.Duration
	Ladder  []units.Bandwidth
	Startup int
	// DownRate serializes the modelled response direction (0 = pure
	// delay). The heavy direction is always the simulated uplink.
	DownRate units.Bandwidth
}

// DefaultLadder is the KindStream bitrate ladder used when none is given:
// a typical live-upload encode ladder from 1.5 to 24 Mbps.
func DefaultLadder() []units.Bandwidth {
	return []units.Bandwidth{
		1500 * units.Kbps, 3 * units.Mbps, 6 * units.Mbps,
		12 * units.Mbps, 24 * units.Mbps,
	}
}

// WithDefaults fills zero fields per kind.
func (w Workload) WithDefaults() Workload {
	switch w.Kind {
	case KindReqRep:
		if w.ReqSize <= 0 {
			w.ReqSize = 256 * units.KB
		}
		if w.RespSize <= 0 {
			w.RespSize = 4 * units.KB
		}
	case KindStream:
		if w.Chunk <= 0 {
			w.Chunk = 120 * time.Millisecond
		}
		if len(w.Ladder) == 0 {
			w.Ladder = DefaultLadder()
		}
		if w.Startup <= 0 {
			w.Startup = 2
		}
		if w.RespSize <= 0 {
			w.RespSize = 128
		}
	}
	return w
}

// Validate rejects malformed workloads.
func (w Workload) Validate() error {
	switch w.Kind {
	case "", KindReqRep, KindStream:
	default:
		return fmt.Errorf("apps: unknown workload kind %q", w.Kind)
	}
	if w.ReqSize < 0 || w.RespSize < 0 {
		return fmt.Errorf("apps: negative request/response size")
	}
	if w.Think < 0 {
		return fmt.Errorf("apps: negative think time %v", w.Think)
	}
	if w.Chunk < 0 {
		return fmt.Errorf("apps: negative chunk duration %v", w.Chunk)
	}
	if w.Startup < 0 {
		return fmt.Errorf("apps: negative startup threshold %d", w.Startup)
	}
	if w.DownRate < 0 {
		return fmt.Errorf("apps: negative down rate %v", w.DownRate)
	}
	var prev units.Bandwidth
	for i, r := range w.Ladder {
		if r <= 0 {
			return fmt.Errorf("apps: ladder rung %d is non-positive (%v)", i, r)
		}
		if r <= prev {
			return fmt.Errorf("apps: ladder must be strictly ascending (rung %d)", i)
		}
		prev = r
	}
	return nil
}

// Stats is the application-level outcome of one run, aggregated across
// the session's connections. All values derive from virtual time, so they
// are byte-deterministic per seed.
type Stats struct {
	// Kind echoes the workload kind.
	Kind string
	// Completed counts fully delivered operations: requests with their
	// response read (KindReqRep) or chunks acknowledged (KindStream).
	Completed int64
	// Canceled counts operations cut off by the run horizon or a
	// transport failure.
	Canceled int64
	// LatMs holds one latency sample per completed operation, in
	// milliseconds, sorted ascending: request write→response read
	// (KindReqRep) or chunk capture→acknowledged delivery (KindStream).
	LatMs []float64

	// KindStream only: viewer playout accounting across connections.
	Stalls        int64
	PlayMs        float64
	StallMs       float64
	RebufferRatio float64
	AvgLevelMbps  float64
	Switches      int64
}

// LatP returns the p-th percentile (0..100) operation latency in ms.
func (s *Stats) LatP(p float64) float64 { return stats.Percentile(s.LatMs, p) }

// merge folds o into s (multi-seed aggregation); LatMs is re-sorted.
func (s *Stats) merge(o *Stats) {
	if o == nil {
		return
	}
	if s.Kind == "" {
		s.Kind = o.Kind
	}
	s.Completed += o.Completed
	s.Canceled += o.Canceled
	s.LatMs = append(s.LatMs, o.LatMs...)
	s.Stalls += o.Stalls
	s.PlayMs += o.PlayMs
	s.StallMs += o.StallMs
	s.Switches += o.Switches
	sort.Float64s(s.LatMs)
	if t := s.PlayMs + s.StallMs; t > 0 {
		s.RebufferRatio = s.StallMs / t
	}
}

// Merge returns the fold of many per-seed stats (nil when all are nil).
func Merge(runs []*Stats) *Stats {
	var out *Stats
	var levelW float64 // completed-weighted mean of AvgLevelMbps
	for _, r := range runs {
		if r == nil {
			continue
		}
		if out == nil {
			out = &Stats{Kind: r.Kind}
		}
		levelW += r.AvgLevelMbps * float64(r.Completed)
		out.merge(r)
	}
	if out != nil && out.Completed > 0 {
		out.AvgLevelMbps = levelW / float64(out.Completed)
	}
	return out
}
