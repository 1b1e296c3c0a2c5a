package faults

import (
	"strings"
	"testing"
	"time"

	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// rig is a single-hop path with a delivery counter and a steady packet
// source clocked every ms.
type rig struct {
	eng       *sim.Engine
	path      *netem.Path
	delivered []time.Duration
}

func newRig(t *testing.T, cfg netem.PipeConfig) *rig {
	t.Helper()
	eng := sim.New(42)
	path, err := netem.NewPath(eng, netem.PathConfig{Hops: []netem.PipeConfig{cfg}})
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	r := &rig{eng: eng, path: path}
	path.SetReceiver(func(p *seg.Packet) { r.delivered = append(r.delivered, eng.Now()) })
	return r
}

// feed injects one packet every interval until end.
func (r *rig) feed(interval, end time.Duration) {
	var seq int64
	var tick func()
	tick = func() {
		if r.eng.Now() >= end {
			return
		}
		r.path.Send(&seg.Packet{Seq: seq, Len: 1000, SentAt: r.eng.Now()})
		seq += 1000
		r.eng.Schedule(interval, tick)
	}
	tick()
}

// deliveredIn counts deliveries inside [from, to).
func (r *rig) deliveredIn(from, to time.Duration) int {
	n := 0
	for _, at := range r.delivered {
		if at >= from && at < to {
			n++
		}
	}
	return n
}

func TestBlackoutStopsAndResumesDelivery(t *testing.T) {
	r := newRig(t, netem.PipeConfig{Rate: 100 * units.Mbps, QueuePackets: 1000})
	sched := Schedule{Events: []Event{Blackout{Start: 100 * time.Millisecond, Duration: 50 * time.Millisecond}}}
	if err := sched.InstallObserved(r.eng, r.path, nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	r.feed(time.Millisecond, 300*time.Millisecond)
	r.eng.Run(400 * time.Millisecond)
	if n := r.deliveredIn(0, 100*time.Millisecond); n == 0 {
		t.Fatal("nothing delivered before the blackout")
	}
	// Allow for the one packet already in propagation at blackout onset.
	if n := r.deliveredIn(101*time.Millisecond, 150*time.Millisecond); n > 1 {
		t.Fatalf("%d packets delivered during the blackout", n)
	}
	if n := r.deliveredIn(150*time.Millisecond, 400*time.Millisecond); n == 0 {
		t.Fatal("nothing delivered after the blackout ended")
	}
	// Held packets are delivered, not dropped.
	if got, want := len(r.delivered), 300; got != want {
		t.Fatalf("delivered %d packets total, want %d", got, want)
	}
}

func TestRateStepChangesServiceRate(t *testing.T) {
	r := newRig(t, netem.PipeConfig{Rate: 8 * units.Mbps, QueuePackets: 1000})
	sched := Schedule{Events: []Event{RateStep{At: 100 * time.Millisecond, Rate: 80 * units.Mbps}}}
	if err := sched.InstallObserved(r.eng, r.path, nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	// 2 packets/ms of 1000B ≈ 16 Mbps offered: overload at 8, underload at 80.
	r.feed(500*time.Microsecond, 200*time.Millisecond)
	r.eng.Run(300 * time.Millisecond)
	before := r.deliveredIn(0, 100*time.Millisecond)
	after := r.deliveredIn(100*time.Millisecond, 200*time.Millisecond)
	if after <= before*2 {
		t.Fatalf("rate step had no effect: %d before vs %d after", before, after)
	}
}

func TestRateRampMonotoneSpacing(t *testing.T) {
	r := newRig(t, netem.PipeConfig{Rate: 100 * units.Mbps, QueuePackets: 1000})
	sched := Schedule{Events: []Event{RateRamp{
		Start: 50 * time.Millisecond, Duration: 100 * time.Millisecond,
		From: 100 * units.Mbps, To: 10 * units.Mbps, Steps: 5,
	}}}
	if err := sched.InstallObserved(r.eng, r.path, nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	r.feed(200*time.Microsecond, 250*time.Millisecond)
	r.eng.Run(300 * time.Millisecond)
	// 5 packets/ms of 1000B = 40 Mbps offered: under the start rate,
	// over the end rate — deliveries must thin out as the ramp bites.
	early := r.deliveredIn(0, 50*time.Millisecond)
	late := r.deliveredIn(150*time.Millisecond, 200*time.Millisecond)
	if late*2 >= early {
		t.Fatalf("ramp did not throttle: early %d late %d", early, late)
	}
}

func TestDelaySpikeAppliesAndRestores(t *testing.T) {
	base := 5 * time.Millisecond
	r := newRig(t, netem.PipeConfig{Rate: units.Gbps, Delay: base, QueuePackets: 100})
	sched := Schedule{Events: []Event{DelaySpike{
		Start: 50 * time.Millisecond, Duration: 50 * time.Millisecond, Extra: 40 * time.Millisecond,
	}}}
	if err := sched.InstallObserved(r.eng, r.path, nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	probe := func(at time.Duration) { r.eng.Schedule(at, func() { r.path.Send(&seg.Packet{Len: 1000}) }) }
	probe(10 * time.Millisecond)  // before: ~base
	probe(60 * time.Millisecond)  // during: ~base+40ms
	probe(150 * time.Millisecond) // after: ~base again
	r.eng.Run(300 * time.Millisecond)
	if len(r.delivered) != 3 {
		t.Fatalf("delivered %d probes, want 3", len(r.delivered))
	}
	lat := []time.Duration{
		r.delivered[0] - 10*time.Millisecond,
		r.delivered[1] - 60*time.Millisecond,
		r.delivered[2] - 150*time.Millisecond,
	}
	if lat[0] > 6*time.Millisecond || lat[2] > 6*time.Millisecond {
		t.Fatalf("base latency off: %v", lat)
	}
	if lat[1] < 44*time.Millisecond {
		t.Fatalf("spike latency %v, want >= 44ms", lat[1])
	}
}

func TestHandoverSwitchesLinkParameters(t *testing.T) {
	r := newRig(t, netem.PipeConfig{Rate: 18 * units.Mbps, Delay: 25 * time.Millisecond, QueuePackets: 300})
	sched := Schedule{Events: []Event{Handover{
		At: 100 * time.Millisecond, Outage: 30 * time.Millisecond,
		Rate: 600 * units.Mbps, Delay: 800 * time.Microsecond,
	}}}
	if err := sched.InstallObserved(r.eng, r.path, nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	r.eng.Run(140 * time.Millisecond)
	if got := r.path.Hop(0).Delay(); got != 800*time.Microsecond {
		t.Fatalf("post-handover delay %v", got)
	}
	// A probe sent now crosses the unpaused link in 1000 B at 600 Mbps
	// (13.3 µs) plus the new 800 µs delay; at the old 18 Mbps it would
	// take 444 µs to serialize.
	r.path.Send(&seg.Packet{Len: 1000, SentAt: r.eng.Now()})
	r.eng.Run(time.Second)
	if len(r.delivered) != 1 {
		t.Fatalf("delivered %d probes after the outage, want 1", len(r.delivered))
	}
	if lat := r.delivered[0] - 140*time.Millisecond; lat < 810*time.Microsecond || lat > 820*time.Microsecond {
		t.Fatalf("probe latency %v, want 813 µs at 600 Mbps", lat)
	}
}

func TestBurstLossWindowed(t *testing.T) {
	r := newRig(t, netem.PipeConfig{Rate: units.Gbps, QueuePackets: 10000})
	sched := Schedule{Events: []Event{BurstLoss{
		Start: 50 * time.Millisecond, Duration: 100 * time.Millisecond,
		GE: netem.GEConfig{PGoodToBad: 0.05, PBadToGood: 0.2, LossBad: 0.9},
	}}}
	if err := sched.InstallObserved(r.eng, r.path, nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	r.feed(100*time.Microsecond, 250*time.Millisecond)
	r.eng.Run(300 * time.Millisecond)
	before := r.deliveredIn(0, 50*time.Millisecond)
	during := r.deliveredIn(50*time.Millisecond, 150*time.Millisecond)
	after := r.deliveredIn(150*time.Millisecond, 250*time.Millisecond)
	// ~500 offered per window half before/after, ~1000 during.
	if before < 490 || after < 980 {
		t.Fatalf("loss outside the window: before %d after %d", before, after)
	}
	if during >= 1000 {
		t.Fatalf("no loss during the burst window: %d", during)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		eng := sim.New(seed)
		path, err := netem.NewPath(eng, netem.PathConfig{
			Hops: []netem.PipeConfig{{Rate: 100 * units.Mbps, QueuePackets: 100}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []time.Duration
		path.SetReceiver(func(p *seg.Packet) { got = append(got, eng.Now()) })
		sched := Schedule{Events: []Event{
			BurstLoss{Start: 10 * time.Millisecond, GE: netem.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8}},
			Blackout{Start: 40 * time.Millisecond, Duration: 20 * time.Millisecond},
		}}
		if err := sched.InstallObserved(eng, path, nil); err != nil {
			t.Fatal(err)
		}
		var seq int64
		var tick func()
		tick = func() {
			if eng.Now() >= 100*time.Millisecond {
				return
			}
			path.Send(&seg.Packet{Seq: seq, Len: 1000})
			seq += 1000
			eng.Schedule(500*time.Microsecond, tick)
		}
		tick()
		eng.Run(150 * time.Millisecond)
		return got
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical delivery schedules")
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		{Hop: -1},
		{Events: []Event{nil}},
		{Events: []Event{Blackout{Start: -time.Second, Duration: time.Second}}},
		{Events: []Event{Blackout{Start: 0, Duration: 0}}},
		{Events: []Event{RateStep{At: 0, Rate: 0}}},
		{Events: []Event{RateRamp{Duration: time.Second, From: 0, To: units.Mbps}}},
		{Events: []Event{DelaySpike{Duration: time.Second, Extra: 0}}},
		{Events: []Event{BurstLoss{GE: netem.GEConfig{PGoodToBad: 2}}}},
		{Events: []Event{Handover{Outage: -time.Second}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d validated", i)
		}
	}
	good := Schedule{Events: []Event{
		Blackout{Start: time.Second, Duration: 2 * time.Second},
		Handover{At: 4 * time.Second, Outage: 150 * time.Millisecond, Rate: 600 * units.Mbps},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("good schedule rejected: %v", err)
	}
	// Hop out of range is an Install-time error.
	eng := sim.New(1)
	path, err := netem.NewPath(eng, netem.PathConfig{Hops: []netem.PipeConfig{{Rate: units.Mbps}}})
	if err != nil {
		t.Fatal(err)
	}
	oob := Schedule{Hop: 3, Events: []Event{Blackout{Start: 0, Duration: time.Second}}}
	if err := oob.InstallObserved(eng, path, nil); err == nil {
		t.Error("out-of-range hop installed")
	}
}

// TestEventWindows is the window audit: every event type must report the
// full interval its effect spans, including effects that extend past their
// start — the RateRamp's final step, the GE burst's end, the handover's
// outage — and must flag open-ended events whose effect persists to run end.
func TestEventWindows(t *testing.T) {
	ge := netem.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8}
	cases := []struct {
		name       string
		ev         Event
		start, end time.Duration
		open       bool
	}{
		{"blackout", Blackout{Start: time.Second, Duration: 2 * time.Second},
			time.Second, 3 * time.Second, false},
		{"rate step (instant)", RateStep{At: time.Second, Rate: units.Mbps},
			time.Second, time.Second, false},
		{"rate ramp spans to final step", RateRamp{Start: time.Second, Duration: 4 * time.Second, From: units.Mbps, To: 2 * units.Mbps},
			time.Second, 5 * time.Second, false},
		{"delay spike", DelaySpike{Start: time.Second, Duration: 500 * time.Millisecond, Extra: time.Millisecond},
			time.Second, 1500 * time.Millisecond, false},
		{"delay step (instant)", DelayStep{At: time.Second, Delay: 10 * time.Millisecond},
			time.Second, time.Second, false},
		{"burst loss windowed", BurstLoss{Start: time.Second, Duration: 3 * time.Second, GE: ge},
			time.Second, 4 * time.Second, false},
		{"burst loss open-ended", BurstLoss{Start: time.Second, GE: ge},
			time.Second, time.Second, true},
		{"handover spans outage", Handover{At: time.Second, Outage: 200 * time.Millisecond, Rate: units.Gbps},
			time.Second, 1200 * time.Millisecond, false},
	}
	for _, c := range cases {
		s, e, open := c.ev.window()
		if s != c.start || e != c.end || open != c.open {
			t.Errorf("%s: window = (%v, %v, %v), want (%v, %v, %v)",
				c.name, s, e, open, c.start, c.end, c.open)
		}
	}
}

// TestScheduleWindowEnvelope: the schedule's window is the envelope of its
// events, and an open-ended event anywhere marks the whole schedule open so
// phase attribution never treats the tail of the run as fault-free.
func TestScheduleWindowEnvelope(t *testing.T) {
	ge := netem.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8}
	if _, _, _, ok := (Schedule{}).Window(); ok {
		t.Error("empty schedule reported a window")
	}
	closed := Schedule{Events: []Event{
		RateStep{At: 2 * time.Second, Rate: units.Mbps},
		Blackout{Start: time.Second, Duration: 3 * time.Second},
		Handover{At: 5 * time.Second, Outage: 500 * time.Millisecond, Rate: units.Gbps},
	}}
	start, end, open, ok := closed.Window()
	if !ok || open || start != time.Second || end != 5500*time.Millisecond {
		t.Errorf("closed envelope = (%v, %v, open=%v, ok=%v), want (1s, 5.5s, false, true)",
			start, end, open, ok)
	}
	// Before the audit fix an open BurstLoss under-reported the envelope:
	// its end came back as its start, so the profiler entered the "after"
	// phase while the loss model was still armed.
	withOpen := Schedule{Events: []Event{
		Blackout{Start: time.Second, Duration: time.Second},
		BurstLoss{Start: 4 * time.Second, GE: ge},
	}}
	start, end, open, ok = withOpen.Window()
	if !ok || !open {
		t.Fatalf("open schedule reported open=%v ok=%v", open, ok)
	}
	if start != time.Second || end != 4*time.Second {
		t.Errorf("open envelope = (%v, %v), want (1s, 4s)", start, end)
	}
}

// TestInstallObservedOpenEndedNoEndMarker: an open-ended event emits a begin
// fault marker but no end marker (it never ends inside the run).
func TestInstallObservedOpenEndedNoEndMarker(t *testing.T) {
	eng := sim.New(1)
	path, err := netem.NewPath(eng, netem.PathConfig{
		Hops: []netem.PipeConfig{{Rate: units.Mbps, QueuePackets: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bus := telemetry.NewBus(eng, 100)
	sched := Schedule{Events: []Event{
		BurstLoss{Start: 10 * time.Millisecond, GE: netem.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8}},
		Blackout{Start: 20 * time.Millisecond, Duration: 10 * time.Millisecond},
	}}
	if err := sched.InstallObserved(eng, path, bus); err != nil {
		t.Fatal(err)
	}
	eng.Run(100 * time.Millisecond)
	var begins, ends int
	for _, e := range bus.Filter(telemetry.KindFault) {
		switch e.Old {
		case "begin":
			begins++
		case "end":
			ends++
		}
	}
	if begins != 2 {
		t.Errorf("begin markers = %d, want 2", begins)
	}
	if ends != 1 {
		t.Errorf("end markers = %d, want 1 (open-ended burst never ends)", ends)
	}
}

// TestDelayStepSetsAbsoluteDelay: unlike DelaySpike, DelayStep pins the
// hop's delay and leaves it there.
func TestDelayStepSetsAbsoluteDelay(t *testing.T) {
	r := newRig(t, netem.PipeConfig{Rate: units.Gbps, Delay: 5 * time.Millisecond, QueuePackets: 100})
	sched := Schedule{Events: []Event{
		DelayStep{At: 50 * time.Millisecond, Delay: 30 * time.Millisecond},
	}}
	if err := sched.InstallObserved(r.eng, r.path, nil); err != nil {
		t.Fatalf("Install: %v", err)
	}
	probe := func(at time.Duration) { r.eng.Schedule(at, func() { r.path.Send(&seg.Packet{Len: 1000}) }) }
	probe(10 * time.Millisecond)  // before: ~5ms
	probe(60 * time.Millisecond)  // after the step: ~30ms
	probe(200 * time.Millisecond) // still ~30ms (no restore)
	r.eng.Run(300 * time.Millisecond)
	if len(r.delivered) != 3 {
		t.Fatalf("delivered %d probes, want 3", len(r.delivered))
	}
	lat := []time.Duration{
		r.delivered[0] - 10*time.Millisecond,
		r.delivered[1] - 60*time.Millisecond,
		r.delivered[2] - 200*time.Millisecond,
	}
	if lat[0] > 6*time.Millisecond {
		t.Errorf("pre-step latency %v, want ~5ms", lat[0])
	}
	if lat[1] < 30*time.Millisecond || lat[2] < 30*time.Millisecond {
		t.Errorf("post-step latencies %v / %v, want >= 30ms and persistent", lat[1], lat[2])
	}
	if got := r.path.Hop(0).Delay(); got != 30*time.Millisecond {
		t.Errorf("final hop delay %v, want 30ms", got)
	}
}

func TestDelayStepAndRampStepsValidate(t *testing.T) {
	if err := (DelayStep{At: -time.Second}).Validate(); err == nil {
		t.Error("negative At validated")
	}
	if err := (DelayStep{Delay: -time.Second}).Validate(); err == nil {
		t.Error("negative Delay validated")
	}
	if err := (DelayStep{At: time.Second, Delay: 0}).Validate(); err != nil {
		t.Errorf("zero delay (remove propagation delay) rejected: %v", err)
	}
	ramp := RateRamp{Duration: time.Second, From: units.Mbps, To: 2 * units.Mbps, Steps: maxRampSteps + 1}
	if err := ramp.Validate(); err == nil {
		t.Error("ramp with excessive steps validated")
	}
	ramp.Steps = maxRampSteps
	if err := ramp.Validate(); err != nil {
		t.Errorf("ramp at the step cap rejected: %v", err)
	}
}

// TestScheduleValidateOverlaps: two windowed events of the same conflict
// family must not overlap — each saves state at onset and restores at end,
// so interleaving double-applies. Touching windows (end == next start) and
// cross-family overlaps are legal; instantaneous events never conflict.
func TestScheduleValidateOverlaps(t *testing.T) {
	ge := netem.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8}
	ms := time.Millisecond
	cases := []struct {
		name    string
		events  []Event
		wantErr string // "" = must validate
	}{
		{"overlapping blackouts",
			[]Event{
				Blackout{Start: 100 * ms, Duration: 100 * ms},
				Blackout{Start: 150 * ms, Duration: 100 * ms},
			}, "overlaps"},
		{"blackout inside handover outage",
			[]Event{
				Handover{At: 100 * ms, Outage: 200 * ms, Rate: units.Gbps},
				Blackout{Start: 150 * ms, Duration: 50 * ms},
			}, "overlaps"},
		{"identical delay spikes",
			[]Event{
				DelaySpike{Start: 100 * ms, Duration: 50 * ms, Extra: 10 * ms},
				DelaySpike{Start: 100 * ms, Duration: 50 * ms, Extra: 20 * ms},
			}, "overlaps"},
		{"burst loss after open-ended burst loss",
			[]Event{
				BurstLoss{Start: 100 * ms, GE: ge},
				BurstLoss{Start: 500 * ms, Duration: 100 * ms, GE: ge},
			}, "open-ended"},
		{"crossing rate ramps",
			[]Event{
				RateRamp{Start: 0, Duration: 200 * ms, From: units.Gbps, To: units.Mbps},
				RateRamp{Start: 100 * ms, Duration: 200 * ms, From: units.Mbps, To: units.Gbps},
			}, "overlaps"},
		{"zero-outage handover",
			[]Event{Handover{At: 100 * ms, Rate: units.Gbps}},
			"RateStep"},
		{"touching blackouts (end == start)",
			[]Event{
				Blackout{Start: 100 * ms, Duration: 100 * ms},
				Blackout{Start: 200 * ms, Duration: 100 * ms},
			}, ""},
		{"blackout then handover back-to-back, out of order",
			[]Event{
				Handover{At: 200 * ms, Outage: 50 * ms, Rate: units.Gbps},
				Blackout{Start: 100 * ms, Duration: 100 * ms},
			}, ""},
		{"cross-family overlap is legal",
			[]Event{
				Blackout{Start: 100 * ms, Duration: 100 * ms},
				DelaySpike{Start: 120 * ms, Duration: 200 * ms, Extra: 10 * ms},
				BurstLoss{Start: 50 * ms, Duration: 500 * ms, GE: ge},
			}, ""},
		{"rate steps inside a blackout (instantaneous, no conflict)",
			[]Event{
				Blackout{Start: 100 * ms, Duration: 100 * ms},
				RateStep{At: 150 * ms, Rate: units.Mbps},
				DelayStep{At: 150 * ms, Delay: 10 * ms},
			}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := (Schedule{Events: tc.events}).Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid schedule rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("conflicting schedule validated")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
