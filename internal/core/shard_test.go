package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/iperf"
	"mobbr/internal/seg"
	"mobbr/internal/telemetry"
)

// maskAllocStats zeroes the pool counters that reflect allocation strategy
// rather than simulation behaviour. With per-shard arenas, frees made on the
// receiver shard only splice back to the sender arena at the next barrier, so
// the sender occasionally allocates fresh objects a serial run would have
// recycled: News and the per-arena MaxOutstanding sum legitimately differ.
// Conservation counters (Gets/Puts/Outstanding/Violations) must still match
// exactly and stay under DeepEqual.
func maskAllocStats(r *iperf.Report) *iperf.Report {
	c := *r
	c.Pool = seg.PoolStats{
		PacketGets: r.Pool.PacketGets, PacketPuts: r.Pool.PacketPuts,
		AckGets: r.Pool.AckGets, AckPuts: r.Pool.AckPuts,
		OutstandingPackets: r.Pool.OutstandingPackets,
		OutstandingAcks:    r.Pool.OutstandingAcks,
		Violations:         r.Pool.Violations,
	}
	return &c
}

// shardBase is the differential workhorse spec: the golden-trace scenario,
// which exercises warmup, interval reporting, pacing, GRO, and the invariant
// checker in half a second.
func shardBase() Spec {
	return Spec{
		Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr",
		Conns: 2, Network: Ethernet,
		Duration: 500 * time.Millisecond, Warmup: 100 * time.Millisecond,
		Seed:  7,
		Check: true,
	}
}

// TestShardedTraceMatchesGolden is the sharded twin of
// TestTraceMatchesGolden: with the receivers on their own shard the
// telemetry trace must still be byte-identical to the serial golden. This is
// the strongest identity pin — every RNG draw, every event interleave, every
// sampled cwnd/srtt value replayed exactly.
func TestShardedTraceMatchesGolden(t *testing.T) {
	spec := shardBase()
	spec.Check = false
	spec.Shards = 2
	spec.Telemetry = telemetry.Config{Trace: true}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.Events.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := bytes.Split(got.Bytes(), []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("sharded trace diverges from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("sharded trace length differs from golden: got %d lines, want %d", len(gl), len(wl))
}

// TestShardedMatchesSerial runs the same specs serial and sharded and
// requires deeply equal results — reports, pool census, checker outcome, and
// the exact processed-event count — across networks and CC schemes.
func TestShardedMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"bbr-ethernet", func(s *Spec) {}},
		{"cubic-wifi", func(s *Spec) { s.CC = "cubic"; s.Network = WiFi }},
		{"bbr-lte", func(s *Spec) { s.Network = Cellular; s.Duration = 2 * time.Second; s.Warmup = 400 * time.Millisecond }},
		{"bbr2-5g", func(s *Spec) {
			s.CC = "bbr2"
			s.Network = Cellular5G
			s.Duration = 1 * time.Second
			s.Warmup = 200 * time.Millisecond
		}},
		{"mix-4conns", func(s *Spec) { s.CC = "bbr,cubic"; s.Conns = 4; s.Seed = 11 }},
		// Interval reporting runs as a barrier global when sharded; its rows
		// must land at the same virtual times with the same counters.
		{"intervals", func(s *Spec) { s.Interval = 100 * time.Millisecond }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := shardBase()
			tc.mut(&spec)
			serial, err := Run(spec)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			spec.Shards = 2
			sharded, err := Run(spec)
			if err != nil {
				t.Fatalf("sharded: %v", err)
			}
			if !reflect.DeepEqual(maskAllocStats(serial.Report), maskAllocStats(sharded.Report)) {
				t.Errorf("reports differ:\nserial:  %+v\nsharded: %+v", serial.Report, sharded.Report)
			}
			if serial.Processed != sharded.Processed {
				t.Errorf("processed events differ: serial %d, sharded %d", serial.Processed, sharded.Processed)
			}
		})
	}
}

// TestShardedDeterministic pins run-to-run reproducibility of the concurrent
// path itself: two sharded runs of one spec must agree exactly.
func TestShardedDeterministic(t *testing.T) {
	spec := shardBase()
	spec.Shards = 2
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("sharded runs differ:\nfirst:  %+v\nsecond: %+v", a.Report, b.Report)
	}
	if a.Processed != b.Processed {
		t.Errorf("processed events differ: %d vs %d", a.Processed, b.Processed)
	}
}

// TestShardedClamp checks that shard counts above the host count behave like
// Shards=2 — the bulk topology only has two hosts to split.
func TestShardedClamp(t *testing.T) {
	spec := shardBase()
	spec.Shards = 2
	two, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 8
	eight, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(two.Report, eight.Report) {
		t.Errorf("Shards=8 diverged from Shards=2")
	}
}

// TestShardedSerialFallback: features bound to a single engine, here a fault
// schedule, must silently run serial even when Shards is set — same results
// as Shards=0.
func TestShardedSerialFallback(t *testing.T) {
	spec := shardBase()
	spec.Faults = faults.Schedule{Events: []faults.Event{
		faults.DelaySpike{Start: 200 * time.Millisecond, Duration: 100 * time.Millisecond, Extra: 5 * time.Millisecond},
	}}
	serial, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 2
	if spec.sharded() {
		t.Fatal("spec with a fault schedule should not report sharded")
	}
	fallback, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Report, fallback.Report) {
		t.Errorf("fallback run diverged from serial")
	}
}

// TestShardedValidation covers the new Validate rules.
func TestShardedValidation(t *testing.T) {
	spec := shardBase()
	spec.Shards = -1
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "negative shard count") {
		t.Errorf("negative shards: got %v", err)
	}
	spec = shardBase()
	spec.Inject = Inject{Kind: InjectLeakMailbox, At: 50 * time.Millisecond}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "sharded run") {
		t.Errorf("leak-mailbox on serial spec: got %v", err)
	}
	spec.Shards = 2
	if err := spec.Validate(); err != nil {
		t.Errorf("leak-mailbox on sharded spec: %v", err)
	}
}

// TestShardedLeakMailboxCaught injects a packet leak inside the cross-shard
// mailbox and requires the invariant checker to flag it. The audit fires
// every check.DefaultInterval (50ms) at barrier cuts, so a leak armed at
// 100ms into a 500ms run must surface as a pool violation well before the
// end — proving the checker's census really covers cross-shard custody.
func TestShardedLeakMailboxCaught(t *testing.T) {
	spec := shardBase()
	spec.Shards = 2
	spec.Inject = Inject{Kind: InjectLeakMailbox, At: 100 * time.Millisecond}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("leaked mailbox packet went undetected")
	}
	if !strings.Contains(err.Error(), "pool/") {
		t.Errorf("expected a pool violation, got: %v", err)
	}
}
