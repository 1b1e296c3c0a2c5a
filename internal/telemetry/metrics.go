package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
)

// Histogram is a fixed-bucket histogram: bounds are inclusive upper edges,
// with an implicit +Inf bucket at the end. Safe on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	n      uint64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1), min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// snapshot copies the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.n, Sum: h.sum, Min: h.min, Max: h.max,
		Bounds: slices.Clone(h.bounds), Counts: slices.Clone(h.counts),
	}
}

// HistogramSnapshot is the frozen view of one histogram.
type HistogramSnapshot struct {
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
	Bounds []float64
	Counts []uint64
}

// Mean returns the snapshot's sample mean (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile approximates the q-quantile (0 ≤ q ≤ 1) from the buckets: the
// upper bound of the bucket holding the q-th sample, or the observed max for
// the overflow bucket.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target && i < len(s.Bounds) {
			return s.Bounds[i]
		}
	}
	return s.Max
}

// BoundsMismatchError reports an attempt to merge histograms with different
// bucket layouts: summing their counts element-wise would silently corrupt
// both distributions.
type BoundsMismatchError struct {
	// Want and Got are the two incompatible bound sets.
	Want, Got []float64
}

// Error implements error.
func (e *BoundsMismatchError) Error() string {
	return fmt.Sprintf("telemetry: cannot merge histogram bounds %v into %v", e.Got, e.Want)
}

// sameBounds reports whether two bound sets are element-wise identical.
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MergeHistogramSnapshots sums src into dst and returns the merged
// snapshot. An empty dst (zero Count and nil Bounds) adopts src's bucket
// layout; otherwise the bounds must match exactly or a *BoundsMismatchError
// is returned and dst is unchanged. Neither input is mutated.
func MergeHistogramSnapshots(dst, src HistogramSnapshot) (HistogramSnapshot, error) {
	if src.Count == 0 && src.Bounds == nil {
		return dst, nil
	}
	if dst.Count == 0 && dst.Bounds == nil {
		out := src
		out.Bounds = append([]float64(nil), src.Bounds...)
		out.Counts = append([]uint64(nil), src.Counts...)
		return out, nil
	}
	if !sameBounds(dst.Bounds, src.Bounds) {
		return dst, &BoundsMismatchError{Want: dst.Bounds, Got: src.Bounds}
	}
	out := dst
	out.Bounds = append([]float64(nil), dst.Bounds...)
	out.Counts = append([]uint64(nil), dst.Counts...)
	for i, c := range src.Counts {
		out.Counts[i] += c
	}
	out.Count += src.Count
	out.Sum += src.Sum
	if src.Count > 0 {
		if dst.Count == 0 || src.Min < out.Min {
			out.Min = src.Min
		}
		if dst.Count == 0 || src.Max > out.Max {
			out.Max = src.Max
		}
	}
	return out, nil
}

// Registry holds named histograms. A nil *Registry is the disabled state:
// Histogram returns nil instruments whose methods no-op, so an instrumented
// component holds nils end to end and pays only nil-checks.
type Registry struct {
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{histograms: make(map[string]*Histogram)}
}

// Histogram returns the named histogram, creating it with bounds on first
// use (later calls ignore bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := newHistogram(bounds)
	r.histograms[name] = h
	return h
}

// Snapshot freezes every histogram's current state.
type Snapshot struct {
	Histograms map[string]HistogramSnapshot
}

// Snapshot freezes the registry. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{Histograms: make(map[string]HistogramSnapshot, len(r.histograms))}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Write renders the snapshot as sorted, aligned text.
func (s *Snapshot) Write(w io.Writer) error {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "%-40s n=%-10d mean=%-12.3f min=%-12.3f max=%.3f\n",
			n, h.Count, h.Mean(), zeroIfInf(h.Min), zeroIfInf(h.Max)); err != nil {
			return err
		}
	}
	return nil
}

func zeroIfInf(v float64) float64 {
	if math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Default histogram bucket edges for the per-connection instruments.
var (
	// AckBatchBounds is in packets newly acked per ACK.
	AckBatchBounds = []float64{1, 2, 4, 8, 16, 32, 64}
	// DeliveryRateBounds is in Mbps per valid rate sample.
	DeliveryRateBounds = []float64{1, 5, 10, 25, 50, 100, 200, 400, 800}
	// SendQuantumBounds is in bytes per skb send.
	SendQuantumBounds = []float64{3000, 6000, 12000, 24000, 48000, 65536}
	// InterSendGapBounds is in ms of pacing idle gap per send.
	InterSendGapBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// TimerSlipBounds is in µs of pacing-timer slippage.
	TimerSlipBounds = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}
)

// ConnMetrics bundles one connection's instruments. A nil *ConnMetrics (or
// any nil instrument inside) is the disabled state.
type ConnMetrics struct {
	// AckBatch is packets newly delivered per processed ACK.
	AckBatch *Histogram
	// DeliveryRate is the per-ACK delivery-rate sample in Mbps — the
	// per-RTT delivery signal BBR's model consumes.
	DeliveryRate *Histogram
	// SendQuantum is bytes per skb handed to the path (TSO autosize).
	SendQuantum *Histogram
	// InterSendGap is the pacing idle gap per send in ms (Eq. 1).
	InterSendGap *Histogram
	// TimerSlip is pacing-timer slippage in µs under CPU contention.
	TimerSlip *Histogram
}

// NewConnMetrics registers connection id's instruments in r. Returns nil on
// a nil registry.
func NewConnMetrics(r *Registry, id int) *ConnMetrics {
	if r == nil {
		return nil
	}
	p := fmt.Sprintf("conn%d/", id)
	return &ConnMetrics{
		AckBatch:     r.Histogram(p+"ack_batch_pkts", AckBatchBounds),
		DeliveryRate: r.Histogram(p+"delivery_rate_mbps", DeliveryRateBounds),
		SendQuantum:  r.Histogram(p+"send_quantum_bytes", SendQuantumBounds),
		InterSendGap: r.Histogram(p+"inter_send_gap_ms", InterSendGapBounds),
		TimerSlip:    r.Histogram(p+"pacing_timer_slip_us", TimerSlipBounds),
	}
}

// connPrefix matches the "conn<N>/" namespace NewConnMetrics registers
// instruments under.
var connPrefix = regexp.MustCompile(`^conn\d+/`)

// HistogramDigest folds the per-connection histograms into one snapshot per
// instrument, keyed by the instrument name with the "conn<N>/" prefix
// stripped (non-connection histograms keep their full name). It returns
// the digest and how many histograms were skipped due to mismatched bucket
// bounds within a key. Keys merge in sorted-name order, so the result is
// deterministic.
func (s *Snapshot) HistogramDigest() (map[string]HistogramSnapshot, int) {
	if s == nil || len(s.Histograms) == 0 {
		return nil, 0
	}
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]HistogramSnapshot)
	skipped := 0
	for _, name := range names {
		key := connPrefix.ReplaceAllString(name, "")
		merged, err := MergeHistogramSnapshots(out[key], s.Histograms[name])
		if err != nil {
			skipped++
			continue
		}
		out[key] = merged
	}
	return out, skipped
}
