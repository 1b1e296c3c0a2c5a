package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/units"
)

// churnSpec is a small, fast churn run: mice-only traffic over the wired
// LAN, sized so thousands of flows open and close within a couple of
// simulated seconds.
func churnSpec() Spec {
	return Spec{
		CPU:      device.Default,
		CC:       "cubic",
		Duration: 2 * time.Second,
		Seed:     7,
		Flows: &flows.Config{
			ArrivalRate:   3000,
			MaxLive:       32,
			InitialFlows:  32,
			MiceBytes:     2 * units.KB,
			ElephantShare: 0.01,
		},
	}
}

// TestFlowsChurnDeterminism: the churn workload is seeded like everything
// else — two runs of the same spec must agree on every counter, every FCT
// sample, and the goodput figure.
func TestFlowsChurnDeterminism(t *testing.T) {
	spec := churnSpec()
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows == nil || b.Flows == nil {
		t.Fatal("Result.Flows not populated for a churn spec")
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) {
		t.Errorf("same seed, different churn stats:\n a %+v\n b %+v", a.Flows, b.Flows)
	}
	if a.Report.Goodput != b.Report.Goodput {
		t.Errorf("same seed, different goodput: %v vs %v", a.Report.Goodput, b.Report.Goodput)
	}
	if a.Flows.Completed == 0 {
		t.Error("no flow completed; churn spec too tight to exercise anything")
	}
}

// TestFlowsChurnPoolsBalanced is the 10k-cycle leak gate: thousands of
// open/close cycles through the conn pool with the invariant checker armed,
// and at the end both the conn pool and the packet pool balance to zero.
func TestFlowsChurnPoolsBalanced(t *testing.T) {
	spec := churnSpec()
	spec.Duration = 5 * time.Second
	spec.Flows.ArrivalRate = 4000
	spec.Flows.MaxLive = 64
	spec.Flows.InitialFlows = 64
	spec.Check = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Flows
	if fs.Started < 10_000 {
		t.Fatalf("only %d flows started, want ≥ 10000 open/close cycles", fs.Started)
	}
	if !fs.Pool.Balanced() {
		t.Fatalf("conn pool not balanced after run: %+v", fs.Pool)
	}
	if fs.Pool.Gets != int(fs.Started) || fs.Pool.Puts != fs.Pool.Gets {
		t.Fatalf("pool gets/puts %d/%d, want both equal to started %d",
			fs.Pool.Gets, fs.Pool.Puts, fs.Started)
	}
	if fs.Pool.Created > fs.Pool.OutstandingHW {
		t.Errorf("pool created %d pairs, more than peak concurrency %d — reuse is broken",
			fs.Pool.Created, fs.Pool.OutstandingHW)
	}
	if got := fs.Started - fs.Completed - fs.Failed - int64(fs.Canceled); got != 0 {
		t.Errorf("flow census does not close: started %d != completed %d + failed %d + canceled %d",
			fs.Started, fs.Completed, fs.Failed, fs.Canceled)
	}
	if rep := res.Report; rep.Pool.OutstandingPackets != 0 || rep.Pool.OutstandingAcks != 0 {
		t.Errorf("segment pool leaks %d packets / %d acks",
			rep.Pool.OutstandingPackets, rep.Pool.OutstandingAcks)
	}
}

// TestFlowsTombstonedAcks is the idempotent-close regression test for the
// churn edge: under loss plus reordering, a delayed original and its
// retransmission race, the receiver sees the data twice, and the second
// copy's duplicate ACK is generated after the cumulative ACK that completed
// (and retired) the flow. That late ACK must hit the path's tombstone
// (counted), never a recycled connection — and late data for a removed flow
// must land in the demux orphan count. The armed checker proves neither
// leaks pool objects nor corrupts a recycled conn's accounting.
func TestFlowsTombstonedAcks(t *testing.T) {
	spec := churnSpec()
	spec.TC.Loss = 0.03
	spec.TC.ReorderJitter = 3 * time.Millisecond
	spec.Duration = 3 * time.Second
	spec.Check = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows.Completed == 0 {
		t.Fatal("no completions; the tombstone path was never exercised")
	}
	if res.Flows.TombstonedAcks == 0 {
		t.Error("no tombstoned ACKs; the late-ACK retirement edge is not being exercised")
	}
	if res.Flows.Orphans == 0 {
		t.Error("no orphaned data packets; the late-data retirement edge is not being exercised")
	}
}

// TestFlowsSpecJSONRoundTrip proves the churn config survives the spec
// codec field-for-field and encodes deterministically.
func TestFlowsSpecJSONRoundTrip(t *testing.T) { checkRoundTrip(t, flowsSpec()) }

// flowsSpec sets every churn config field.
func flowsSpec() Spec {
	return Spec{
		Device:   device.Pixel6,
		CPU:      device.MidEnd,
		CC:       "bbr",
		Duration: 1300 * time.Millisecond,
		Network:  WiFi,
		Seed:     42,
		Check:    true,
		Flows: &flows.Config{
			ArrivalRate:      2500,
			MaxLive:          4096,
			InitialFlows:     512,
			MiceBytes:        8 * units.KB,
			MiceSigma:        0.7,
			ElephantShare:    0.08,
			ParetoAlpha:      1.5,
			ElephantMinBytes: 2 * units.MB,
			MaxFlowBytes:     32 * units.MB,
			FlowTableSlots:   256,
			OffloadThreshold: 16,
		},
	}
}

// TestFlowsValidation: the churn workload excludes the fixed-set-only
// features, and malformed flows configs are rejected before assembly.
func TestFlowsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"workload", func(s *Spec) { s.Workload = apps.Workload{Kind: apps.KindReqRep} }, "mutually exclusive"},
		{"inject corrupt", func(s *Spec) { s.Inject = Inject{Kind: InjectCorruptInflight} }, "fixed connection set"},
		{"cc mix", func(s *Spec) { s.CC = "bbr,reno" }, "Flows runs one congestion control"},
		{"negative initial", func(s *Spec) { s.Flows.InitialFlows = -1 }, "initial flows"},
		{"elephant share", func(s *Spec) { s.Flows.ElephantShare = 1.5 }, "elephant share"},
		{"negative slots", func(s *Spec) { s.Flows.FlowTableSlots = -2 }, "flow-table slots"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := churnSpec()
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestFlowsRunSeedsMerge: the multi-seed aggregate folds churn stats —
// counters sum and FCT samples pool across seeds.
func TestFlowsRunSeedsMerge(t *testing.T) {
	spec := churnSpec()
	spec.Duration = time.Second
	agg, err := RunSeeds(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Flows == nil {
		t.Fatal("Aggregate.Flows not populated")
	}
	var started int64
	var fct int
	for _, r := range agg.Runs {
		started += r.Flows.Started
		fct += len(r.Flows.FCTms)
	}
	if agg.Flows.Started != started {
		t.Errorf("merged started %d != per-seed sum %d", agg.Flows.Started, started)
	}
	if len(agg.Flows.FCTms) != fct {
		t.Errorf("merged FCT samples %d != per-seed sum %d", len(agg.Flows.FCTms), fct)
	}
}

// TestFlowsChurnIntervals: a churn run with Interval set reports one
// interval per Interval of Duration, the intervals' bytes add up to the
// run's delivered bytes, and the RTT column reads the live flows' samples.
func TestFlowsChurnIntervals(t *testing.T) {
	spec := churnSpec()
	spec.Interval = 250 * time.Millisecond
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ivs := res.Report.Intervals
	if want := int(spec.Duration / spec.Interval); len(ivs) != want {
		t.Fatalf("%d intervals over %v at %v, want %d", len(ivs), spec.Duration, spec.Interval, want)
	}
	var sum units.DataSize
	for i, iv := range ivs {
		if iv.End-iv.Start != spec.Interval || iv.End != time.Duration(i+1)*spec.Interval {
			t.Errorf("interval %d spans %v-%v", i, iv.Start, iv.End)
		}
		if iv.AvgRTT <= 0 {
			t.Errorf("interval %d has no RTT with flows live", i)
		}
		sum += iv.Goodput.BytesIn(spec.Interval)
	}
	// Each goodput figure rounds to whole bits per second, and each
	// conversion back to bytes truncates: a byte or so per interval.
	total := res.Report.Goodput.BytesIn(spec.Duration)
	if total == 0 {
		t.Fatal("churn run delivered nothing")
	}
	if diff := sum - total; diff < -units.DataSize(len(ivs)+1) || diff > units.DataSize(len(ivs)+1) {
		t.Errorf("intervals sum to %d bytes, the run delivered %d", sum, total)
	}
}
