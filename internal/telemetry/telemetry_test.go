package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobbr/internal/sim"
)

func TestBusStampsVirtualTime(t *testing.T) {
	eng := sim.New(1)
	bus := NewBus(eng, 0)
	eng.Schedule(5*time.Millisecond, func() {
		bus.Emit(Event{Kind: KindRTO, Conn: 0, Value: 1})
	})
	eng.Schedule(20*time.Millisecond, func() {
		bus.Emit(Event{Kind: KindTCPState, Conn: 1, Old: "open", New: "loss"})
	})
	eng.Run(time.Second)

	evs := bus.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].At != 5*time.Millisecond || evs[1].At != 20*time.Millisecond {
		t.Errorf("timestamps = %v, %v", evs[0].At, evs[1].At)
	}
	if got := bus.Filter(KindTCPState); len(got) != 1 || got[0].New != "loss" {
		t.Errorf("Filter(KindTCPState) = %v", got)
	}
}

// TestBusCapDrops holds the cap to exact counts wherever it falls in the
// chunked log: inside the first chunk, exactly where the first chunk is full,
// one past it (which opens the second chunk) and inside a later chunk. These
// records are 4 B for event 0, whose value is +0 and so not stored, and 12 B
// for each later one, so 342 events fill the first 4 KiB chunk to the byte.
// An event past the cap allocates nothing.
func TestBusCapDrops(t *testing.T) {
	for _, limit := range []int{2, 100, 342, 343, 1000} {
		eng := sim.New(1)
		bus := NewBus(eng, limit)
		const emitted = 1500
		for i := 0; i < emitted; i++ {
			bus.Emit(Event{Kind: KindRTO, Value: float64(i)})
		}
		evs := bus.Events()
		if len(evs) != limit || bus.Dropped() != uint64(emitted-limit) {
			t.Errorf("cap %d: kept %d, dropped %d; want %d, %d", limit, len(evs), bus.Dropped(), limit, emitted-limit)
		}
		for i, e := range evs {
			if e.Value != float64(i) {
				t.Fatalf("cap %d: event %d carries value %v; the first %d emitted must be kept in order", limit, i, e.Value, limit)
			}
		}
		switch first := len(bus.chunks[0]); {
		case limit == 342 && (len(bus.chunks) != 1 || first != firstChunkBytes):
			t.Errorf("cap 342: %d chunks, the first holding %d B; want one full %d B chunk", len(bus.chunks), first, firstChunkBytes)
		case limit == 343 && (len(bus.chunks) != 2 || first != firstChunkBytes || len(bus.chunks[1]) != 12):
			t.Errorf("cap 343: %d chunks; want the first full and the second holding one 12 B record", len(bus.chunks))
		}
		if allocs := testing.AllocsPerRun(100, func() { bus.Emit(Event{Kind: KindRTO}) }); allocs != 0 {
			t.Errorf("cap %d: an event past the cap allocated %.1f objects", limit, allocs)
		}
	}
}

// The disabled state is a nil pointer everywhere; every recording method
// must be a no-op that allocates nothing — this is the hot-path contract
// the instrumented transport relies on.
func TestNilReceiversZeroAlloc(t *testing.T) {
	var bus *Bus
	var h *Histogram
	var r *Registry
	var p *Profile
	var coll *EngineCollector
	allocs := testing.AllocsPerRun(100, func() {
		bus.Emit(Event{Kind: KindPacingTimer, Value: 1})
		h.Observe(42)
		p.Add("net", "pacing_timer", 16000)
		p.SetPhase("during")
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocated %.1f allocs/op, want 0", allocs)
	}
	if bus.Events() != nil || bus.Filter(KindRTO) != nil || bus.Dropped() != 0 {
		t.Error("nil bus accessors not inert")
	}
	if p.CoreTotal("net") != 0 || p.Share("net", "x") != 0 || p.PhaseShare("net", "run", "x") != 0 {
		t.Error("nil profile accessors not zero")
	}
	if r.Histogram("z", nil) != nil || r.Snapshot() != nil {
		t.Error("nil registry should hand out nil instruments")
	}
	if NewConnMetrics(nil, 0) != nil {
		t.Error("NewConnMetrics(nil) should be nil")
	}
	if coll.Stop() != nil {
		t.Error("nil collector Stop should be nil")
	}
	if err := bus.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil bus WriteJSONL: %v", err)
	}
}

// TestWriteJSONLMatchesMarshal holds the buffered encoder to the wire form
// it replaced — json.Marshal of each event plus a newline — with strings
// that need escaping and floats at both ends of the formatter. The event
// counts sit on both sides of the log's first two chunk boundaries: the
// count whose last record closes a chunk (found by a probe run, as records
// vary in length) and the count that opens the next one. The largest runs
// past the doubling chunks into capped ones and crosses several flush
// chunks, and the writer must see those chunks, not one Write per event.
// Events and Filter must walk the log in emission order.
// (The allocation side is budgeted in core.TestSteadyStateAllocsJSONL,
// which can skip itself under -race.)
func TestWriteJSONLMatchesMarshal(t *testing.T) {
	labels := []string{"", "STARTUP", `<a href="x">&</a>`, "tab\there", "µs/é\u2028"}
	// run emits events and returns the bus with the indexes of the events
	// that opened a chunk.
	run := func(events int) (*Bus, []int) {
		eng := sim.New(1)
		bus := NewBus(eng, 0)
		var opened []int
		for i := 0; i < events; i++ {
			i := i
			eng.Schedule(time.Duration(i)*time.Microsecond, func() {
				chunks := len(bus.chunks)
				bus.Emit(Event{Kind: Kind(i % int(numKinds)), Conn: i%9 - 1,
					Old: labels[i%len(labels)], New: labels[(i/3)%len(labels)],
					Value: float64(i) / 7, V2: 1e21 * float64(i%2), V3: 1e-7 * float64(i%3), V4: float64(i % 4)})
				if len(bus.chunks) > chunks {
					opened = append(opened, i)
				}
			})
		}
		eng.Run(time.Second)
		return bus, opened
	}
	// Event opened[c] is the first in chunk c, so the first c chunks hold
	// opened[c] events.
	_, opened := run(1000)
	big := 20*maxChunkBytes/maxRecordBytes + 1
	for _, events := range []int{0, 1, 63, opened[1], opened[1] + 1, opened[2], opened[2] + 1, big} {
		bus, _ := run(events)
		for c := 1; c <= 2; c++ {
			if events == opened[c] && len(bus.chunks) != c || events == opened[c]+1 && len(bus.chunks) != c+1 {
				t.Fatalf("%d events fill %d chunks; the first %d hold %d events", events, len(bus.chunks), c, opened[c])
			}
		}
		if events == big && cap(bus.chunks[len(bus.chunks)-2]) != maxChunkBytes {
			t.Fatalf("%d events never reached a %d B chunk", events, maxChunkBytes)
		}

		evs := bus.Events()
		if len(evs) != events || cap(evs) != events {
			t.Fatalf("%d events: Events() has len %d, cap %d; want an exactly-sized copy", events, len(evs), cap(evs))
		}
		var want bytes.Buffer
		for i, e := range evs {
			if e.At != time.Duration(i)*time.Microsecond || e.Value != float64(i)/7 {
				t.Fatalf("%d events: Events()[%d] = %+v, out of emission order", events, i, e)
			}
			line, err := json.Marshal(jsonEvent{
				TNs: int64(e.At), Kind: e.Kind.String(), Conn: e.Conn, Old: e.Old, New: e.New,
				V: e.Value, V2: e.V2, V3: e.V3, V4: e.V4,
			})
			if err != nil {
				t.Fatal(err)
			}
			want.Write(line)
			want.WriteByte('\n')
		}
		for k := Kind(0); k < numKinds; k++ {
			var sub []Event
			for _, e := range evs {
				if e.Kind == k {
					sub = append(sub, e)
				}
			}
			if got := bus.Filter(k); !reflect.DeepEqual(got, sub) {
				t.Fatalf("%d events: Filter(%v) has %d events, not the %d of that kind in emission order", events, k, len(got), len(sub))
			}
		}
		var got countingWriter
		if err := bus.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.buf.Bytes(), want.Bytes()) {
			t.Fatalf("%d events: buffered JSONL differs from json.Marshal + newline per event", events)
		}
		if (events > 0) != (got.writes > 0) || got.writes > max(1, events/50) ||
			got.largest > jsonlFlushBytes+1024 {
			t.Errorf("%d events (%d bytes) reached the writer in %d writes of up to %d bytes, want chunks of about %d",
				events, want.Len(), got.writes, got.largest, jsonlFlushBytes)
		}
	}
}

// TestWritersReturnWriteErrors holds every text and JSONL writer to
// returning its io.Writer's error, wherever the failing Write falls, and
// every nil receiver's writer to writing nothing.
func TestWritersReturnWriteErrors(t *testing.T) {
	p := NewProfile()
	p.Add("net", "pacing_timer", 100)
	r := NewRegistry()
	r.Histogram("gap_ms", []float64{1}).Observe(3)
	bus := NewBus(sim.New(1), 0)
	bus.Emit(Event{Kind: KindRTO})
	var (
		nilProfile *Profile
		nilSnap    *Snapshot
		nilStats   *EngineStats
		nilBus     *Bus
	)
	for _, tc := range []struct {
		name   string
		write  func(io.Writer) error
		writes int // Write calls that succeed before one fails
	}{
		{"Profile.WriteTable header", p.WriteTable, 0},
		{"Profile.WriteTable row", p.WriteTable, 1},
		{"Profile.WriteFolded", p.WriteFolded, 0},
		{"Snapshot.Write", r.Snapshot().Write, 0},
		{"EngineStats.Write", (&EngineStats{}).Write, 0},
		{"Bus.WriteJSONL", bus.WriteJSONL, 0},
	} {
		w := &failingWriter{ok: tc.writes}
		if err := tc.write(w); !errors.Is(err, errWriteFailed) {
			t.Errorf("%s after %d good writes returned %v, want the writer's error", tc.name, tc.writes, err)
		}
	}
	for name, write := range map[string]func(io.Writer) error{
		"Profile.WriteTable": nilProfile.WriteTable, "Profile.WriteFolded": nilProfile.WriteFolded,
		"Snapshot.Write": nilSnap.Write, "EngineStats.Write": nilStats.Write, "Bus.WriteJSONL": nilBus.WriteJSONL,
	} {
		w := &failingWriter{}
		if err := write(w); err != nil || w.calls != 0 {
			t.Errorf("nil %s returned %v after %d writes, want nil and none", name, err, w.calls)
		}
	}
}

var errWriteFailed = errors.New("write failed")

// failingWriter accepts ok Write calls and fails every later one.
type failingWriter struct{ ok, calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.ok {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// countingWriter records what it is given, in how many Write calls, and
// the largest of them.
type countingWriter struct {
	buf     bytes.Buffer
	writes  int
	largest int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.buf.Write(p)
}

func TestWriteJSONLDeterministicAndParseable(t *testing.T) {
	mk := func() *bytes.Buffer {
		eng := sim.New(7)
		bus := NewBus(eng, 0)
		eng.Schedule(time.Millisecond, func() {
			bus.Emit(Event{Kind: KindCCMode, Conn: 0, Old: "STARTUP", New: "DRAIN"})
			bus.Emit(Event{Kind: KindPacingTimer, Conn: 1, Value: 12.5})
			bus.Emit(Event{Kind: KindViolation, Conn: -1, New: "cwnd/bounds", Old: `detail with "quotes"`})
		})
		eng.Run(10 * time.Millisecond)
		var buf bytes.Buffer
		if err := bus.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical runs produced different JSONL:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	var prev int64 = -1
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		tns := int64(m["t_ns"].(float64))
		if tns < prev {
			t.Errorf("t_ns went backwards: %d after %d", tns, prev)
		}
		prev = tns
		if m["kind"] == "" {
			t.Errorf("line missing kind: %q", line)
		}
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	live := newHistogram([]float64{10, 100})
	for _, v := range []float64{1, 5, 50, 500} {
		live.Observe(v)
	}
	h := live.snapshot()
	if h.Count != 4 {
		t.Fatalf("count = %d", h.Count)
	}
	if got := h.Mean(); got != 139 {
		t.Errorf("mean = %v, want 139", got)
	}
	// Buckets: ≤10 ×2, ≤100 ×1, overflow ×1.
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
	if got := h.Quantile(1); got != 500 {
		t.Errorf("p100 = %v, want max 500 (overflow bucket)", got)
	}
	if got := h.Quantile(0); got != 10 {
		t.Errorf("p0 = %v, want the first sample's bucket bound 10", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("p50 of an empty histogram = %v, want 0", got)
	}
}

func TestRegistrySnapshotAndWrite(t *testing.T) {
	r := NewRegistry()
	r.Histogram("gap_ms", []float64{1, 10}).Observe(3)
	r.Histogram("slip_us", []float64{1}).Observe(2)
	if r.Histogram("gap_ms", nil) != r.Histogram("gap_ms", nil) {
		t.Error("same name must return the same histogram")
	}
	s := r.Snapshot()
	hs := s.Histograms["gap_ms"]
	if hs.Count != 1 || hs.Min != 3 || hs.Max != 3 {
		t.Errorf("hist snapshot = %+v", hs)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gap_ms", "slip_us"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, out)
		}
	}
}

// TestMergedHistogram: the digest merges one instrument across connections.
func TestMergedHistogram(t *testing.T) {
	r := NewRegistry()
	NewConnMetrics(r, 0).AckBatch.Observe(4)
	NewConnMetrics(r, 1).AckBatch.Observe(8)
	d, _ := r.Snapshot().HistogramDigest()
	m := d["ack_batch_pkts"]
	if m.Count != 2 || m.Min != 4 || m.Max != 8 {
		t.Errorf("merged = %+v", m)
	}
	if m.Mean() != 6 {
		t.Errorf("merged mean = %v, want 6", m.Mean())
	}
	if empty, _ := NewRegistry().Snapshot().HistogramDigest(); len(empty) != 0 {
		t.Errorf("empty digest = %+v", empty)
	}
}

func TestProfileSharesAndOutput(t *testing.T) {
	p := NewProfile()
	p.Add("net", "pacing_timer", 100)
	p.Add("net", "seg_xmit", 300)
	p.SetPhase("during")
	p.Add("net", "pacing_timer", 200)
	p.Add("app", "data_copy", 50)

	if got := p.CoreTotal("net"); got != 600 {
		t.Errorf("net total = %v, want 600", got)
	}
	if got := p.Share("net", "pacing_timer"); got != 0.5 {
		t.Errorf("pacing share = %v, want 0.5", got)
	}
	if got := p.PhaseShare("net", "during", "pacing_timer"); got != 1 {
		t.Errorf("during pacing share = %v, want 1", got)
	}
	if p.Share("gpu", "pacing_timer") != 0 || p.PhaseShare("net", "after", "pacing_timer") != 0 {
		t.Error("a core or phase with no cycles must have share 0")
	}

	var tbl bytes.Buffer
	if err := p.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "pacing_timer") || !strings.Contains(tbl.String(), "during") {
		t.Errorf("table output:\n%s", tbl.String())
	}

	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(folded.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("folded lines = %d, want 4:\n%s", len(lines), folded.String())
	}
	for _, line := range lines {
		// Folded-stack format: "core;phase;op cycles".
		parts := strings.Split(line, " ")
		if len(parts) != 2 || strings.Count(parts[0], ";") != 2 {
			t.Errorf("bad folded line %q", line)
		}
	}
}

func TestEngineCollector(t *testing.T) {
	eng := sim.New(3)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 100 {
			eng.Schedule(time.Millisecond, tick)
		}
	}
	eng.Schedule(0, tick)
	coll := StartEngineCollector(eng)
	eng.Run(time.Second)
	st := coll.Stop()
	if st == nil {
		t.Fatal("nil stats")
	}
	if st.Events < 100 {
		t.Errorf("events = %d, want >= 100", st.Events)
	}
	if st.VirtualTime != time.Second {
		t.Errorf("virtual time = %v", st.VirtualTime)
	}
	if st.MaxPending < 1 {
		t.Errorf("max pending = %d", st.MaxPending)
	}
	if math.IsNaN(st.EventsPerSec) || st.EventsPerSec <= 0 {
		t.Errorf("events/sec = %v", st.EventsPerSec)
	}
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "events") {
		t.Errorf("stats text: %q", buf.String())
	}
}

func TestConfigAny(t *testing.T) {
	if (Config{}).Any() {
		t.Error("zero config reports Any")
	}
	for _, c := range []Config{{Trace: true}, {Metrics: true}, {Profile: true}} {
		if !c.Any() {
			t.Errorf("%+v should report Any", c)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindPacingTimer.String() != "pacing_timer" {
		t.Errorf("KindPacingTimer = %q", KindPacingTimer)
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind = %q", Kind(200))
	}
}
