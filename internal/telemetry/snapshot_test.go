package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestSnapshotWriteDeterministic pins Snapshot.Write's output to sorted key
// order regardless of registration order: two registries holding the same
// instruments, built in reversed order, must render byte-identically, and
// the rendered names must be sorted.
func TestSnapshotWriteDeterministic(t *testing.T) {
	build := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			r.Histogram(n, []float64{1, 10}).Observe(float64(len(n)))
		}
		return r
	}
	names := []string{
		"conn1/zeta", "alpha", "h/mid", "conn0/alpha", "zeta", "h/aaa",
		"conn10/mid", "mid", "h/zzz",
	}
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	var a, b bytes.Buffer
	if err := build(names).Snapshot().Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(rev).Snapshot().Write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("registration order leaked into Write output:\n--- forward\n%s--- reversed\n%s", a.String(), b.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimRight(a.String(), "\n"), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if len(got) != len(names) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(got), len(names), a.String())
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("names not sorted: %q after %q", got[i], got[i-1])
		}
	}
}

// TestMergeHistogramSnapshots covers the mergeable-snapshot codec: adopt
// into empty, sum matching layouts, and reject mismatched bounds with a
// structured error instead of corrupting buckets.
func TestMergeHistogramSnapshots(t *testing.T) {
	mk := func(bounds []float64, vals ...float64) HistogramSnapshot {
		h := newHistogram(bounds)
		for _, v := range vals {
			h.Observe(v)
		}
		return h.snapshot()
	}
	a := mk([]float64{1, 10}, 0.5, 5)
	b := mk([]float64{1, 10}, 20, 0.2)

	m, err := MergeHistogramSnapshots(HistogramSnapshot{}, a)
	if err != nil {
		t.Fatal(err)
	}
	m, err = MergeHistogramSnapshots(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 4 || m.Min != 0.2 || m.Max != 20 {
		t.Fatalf("merged = %+v", m)
	}
	want := []uint64{2, 1, 1}
	for i, c := range m.Counts {
		if c != want[i] {
			t.Fatalf("merged counts = %v, want %v", m.Counts, want)
		}
	}
	// a must not have been mutated by the merge.
	if a.Counts[0] != 1 || a.Count != 2 {
		t.Fatalf("merge mutated its input: %+v", a)
	}

	// Mismatched bounds: structured error, dst unchanged.
	c := mk([]float64{2, 20}, 3)
	got, err := MergeHistogramSnapshots(m, c)
	var bm *BoundsMismatchError
	if err == nil {
		t.Fatal("mismatched bounds merged without error")
	} else if !errors.As(err, &bm) {
		t.Fatalf("error %T is not *BoundsMismatchError", err)
	}
	if got.Count != m.Count {
		t.Fatalf("dst changed on rejected merge: %+v", got)
	}
	if msg := bm.Error(); !strings.Contains(msg, "[2 20]") || !strings.Contains(msg, "[1 10]") {
		t.Fatalf("mismatch error %q does not name both layouts", msg)
	}
	if _, err := MergeHistogramSnapshots(m, mk([]float64{1}, 3)); !errors.As(err, &bm) {
		t.Fatalf("bounds of another length merged with error %v", err)
	}
	// An empty src leaves dst as it is.
	if got, err := MergeHistogramSnapshots(m, HistogramSnapshot{}); err != nil || got.Count != m.Count || got.Max != m.Max {
		t.Fatalf("merging an empty snapshot gave %+v, %v", got, err)
	}
}

// TestMergedHistogramSkipsMismatchedBounds: the digest's cross-connection
// merge must skip (and count) histograms whose bucket layout differs instead
// of silently summing incompatible counts — equal-length different-bound
// layouts would corrupt the merge.
func TestMergedHistogramSkipsMismatchedBounds(t *testing.T) {
	r := NewRegistry()
	r.Histogram("conn0/x", []float64{1, 10}).Observe(5)
	r.Histogram("conn1/x", []float64{2, 20}).Observe(5) // same len, different bounds
	r.Histogram("conn2/x", []float64{1, 10}).Observe(0.5)
	d, skipped := r.Snapshot().HistogramDigest()
	m := d["x"]
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if m.Count != 2 {
		t.Fatalf("merged count = %d, want 2", m.Count)
	}
	// conn0 sorts first, so its layout is adopted.
	if m.Bounds[0] != 1 || m.Bounds[1] != 10 {
		t.Fatalf("adopted bounds = %v, want [1 10]", m.Bounds)
	}
	if m.Counts[0] != 1 || m.Counts[1] != 1 {
		t.Fatalf("merged counts = %v", m.Counts)
	}
}

// TestHistogramDigest folds conn-prefixed instruments by stripped name.
func TestHistogramDigest(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		cm := NewConnMetrics(r, i)
		cm.AckBatch.Observe(float64(i + 1))
		cm.TimerSlip.Observe(100)
	}
	r.Histogram("global/other", []float64{1}).Observe(2)
	d, skipped := r.Snapshot().HistogramDigest()
	if skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	if got := d["ack_batch_pkts"].Count; got != 3 {
		t.Fatalf("ack_batch_pkts count = %d, want 3", got)
	}
	if got := d["pacing_timer_slip_us"].Count; got != 3 {
		t.Fatalf("slip count = %d, want 3", got)
	}
	if got := d["global/other"].Count; got != 1 {
		t.Fatalf("non-conn histogram lost: %v", d)
	}
	if q := d["pacing_timer_slip_us"].Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %v, want bucket bound 100", q)
	}
}
