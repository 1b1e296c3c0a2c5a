package apps

import (
	"reflect"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/cubic"
	"mobbr/internal/cpumodel"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// newRun builds one workload session over a rate-limited wired path, with
// packets and ACKs recycled through a pool as core.Run does.
func newRun(t *testing.T, seed int64, wl Workload, conns int, dur time.Duration) (*sim.Engine, *netem.Path, *Session) {
	t.Helper()
	eng := sim.New(seed)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, netem.TC{Rate: 50 * units.Mbps, Delay: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	icfg := iperf.Config{
		Conns:    conns,
		Duration: dur,
		CC:       func() cc.CongestionControl { return cubic.New() },
		Pool:     seg.NewPool(),
	}
	s, err := New(eng, cpu, path, icfg, wl)
	if err != nil {
		t.Fatalf("apps.New: %v", err)
	}
	return eng, path, s
}

// runOnce executes one workload run.
func runOnce(t *testing.T, seed int64, wl Workload, conns int, dur time.Duration) (*iperf.Report, *Stats) {
	t.Helper()
	_, _, s := newRun(t, seed, wl, conns, dur)
	return s.Run()
}

func TestReqRepCompletes(t *testing.T) {
	rep, st := runOnce(t, 1, Workload{Kind: KindReqRep, Think: 5 * time.Millisecond}, 2, 2*time.Second)
	if st.Kind != KindReqRep {
		t.Fatalf("kind = %q", st.Kind)
	}
	if st.Completed == 0 {
		t.Fatalf("no requests completed")
	}
	if int64(len(st.LatMs)) != st.Completed {
		t.Fatalf("latency samples %d != completed %d", len(st.LatMs), st.Completed)
	}
	for i := 1; i < len(st.LatMs); i++ {
		if st.LatMs[i] < st.LatMs[i-1] {
			t.Fatalf("LatMs not sorted at %d", i)
		}
	}
	// Each request uploads 256KB over a 50Mbps / ~20ms-RTT path: latency
	// must be at least the serialization time plus one RTT (~60ms).
	if p50 := st.LatP(50); p50 < 40 {
		t.Errorf("p50 = %.1fms, implausibly low", p50)
	}
	if rep.Goodput <= 0 {
		t.Errorf("transport goodput = %v, want > 0", rep.Goodput)
	}
}

func TestStreamPlayout(t *testing.T) {
	_, st := runOnce(t, 1, Workload{Kind: KindStream}, 1, 3*time.Second)
	if st.Completed == 0 {
		t.Fatalf("no chunks delivered")
	}
	if st.RebufferRatio < 0 || st.RebufferRatio > 1 {
		t.Fatalf("rebuffer ratio %v out of [0,1]", st.RebufferRatio)
	}
	if st.PlayMs <= 0 {
		t.Errorf("viewer never played (playMs=%v stallMs=%v)", st.PlayMs, st.StallMs)
	}
	if st.AvgLevelMbps <= 0 {
		t.Errorf("avg ladder level = %v, want > 0", st.AvgLevelMbps)
	}
}

// TestDeterminism pins the contract that two runs with the same seed
// produce identical transport reports and application stats.
func TestDeterminism(t *testing.T) {
	for _, wl := range []Workload{
		{Kind: KindReqRep, Think: 5 * time.Millisecond},
		{Kind: KindStream},
	} {
		r1, s1 := runOnce(t, 42, wl, 2, 1500*time.Millisecond)
		r2, s2 := runOnce(t, 42, wl, 2, 1500*time.Millisecond)
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: transport reports differ between identical seeded runs", wl.Kind)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: app stats differ between identical seeded runs", wl.Kind)
		}
	}
}

func TestViewerPlayout(t *testing.T) {
	v := &viewer{chunk: 100 * time.Millisecond, startup: 2}
	ms100 := 100 * time.Millisecond
	v.onChunk(1 * ms100) // buffered 1 chunk: not started
	if v.started {
		t.Fatalf("started before the startup threshold")
	}
	v.onChunk(2 * ms100) // second chunk: playout starts
	if !v.started || !v.playing {
		t.Fatalf("playout did not start at the startup threshold")
	}
	// Plays 200ms of buffer, then stalls 100ms with nothing delivered.
	v.advance(5 * ms100)
	if v.playMs != 200 || v.stallMs != 100 || v.stalls != 1 {
		t.Fatalf("play=%v stall=%v stalls=%d, want 200/100/1", v.playMs, v.stallMs, v.stalls)
	}
	// A chunk at 600ms ends the stall and resumes playout.
	v.onChunk(6 * ms100)
	if !v.playing || v.stallMs != 200 {
		t.Fatalf("resume failed: playing=%v stall=%v", v.playing, v.stallMs)
	}
	v.advance(7 * ms100)
	if v.playMs != 300 || v.buf != 0 {
		t.Fatalf("after resume: play=%v buf=%v, want 300/0", v.playMs, v.buf)
	}
}

func TestMerge(t *testing.T) {
	a := &Stats{Kind: KindStream, Completed: 2, LatMs: []float64{3, 1}, PlayMs: 80, StallMs: 20, AvgLevelMbps: 6}
	b := &Stats{Kind: KindStream, Completed: 2, LatMs: []float64{2}, Canceled: 1, PlayMs: 100, AvgLevelMbps: 12}
	m := Merge([]*Stats{a, nil, b})
	if m.Completed != 4 || m.Canceled != 1 {
		t.Fatalf("counts: %+v", m)
	}
	if !reflect.DeepEqual(m.LatMs, []float64{1, 2, 3}) {
		t.Fatalf("merged latencies not re-sorted: %v", m.LatMs)
	}
	if m.RebufferRatio != 0.1 {
		t.Fatalf("rebuffer ratio %v, want 0.1", m.RebufferRatio)
	}
	if m.AvgLevelMbps != 9 {
		t.Fatalf("avg level %v, want 9 (completed-weighted)", m.AvgLevelMbps)
	}
	if Merge([]*Stats{nil, nil}) != nil {
		t.Fatalf("Merge of all-nil runs should be nil")
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		wl   Workload
	}{
		{"unknown kind", Workload{Kind: "ftp"}},
		{"negative request", Workload{Kind: KindReqRep, ReqSize: -1}},
		{"negative response", Workload{Kind: KindReqRep, RespSize: -1}},
		{"negative think", Workload{Kind: KindReqRep, Think: -time.Second}},
		{"negative chunk", Workload{Kind: KindStream, Chunk: -time.Second}},
		{"negative startup", Workload{Kind: KindStream, Startup: -1}},
		{"negative down rate", Workload{Kind: KindReqRep, DownRate: -units.Mbps}},
		{"descending ladder", Workload{Kind: KindStream, Ladder: []units.Bandwidth{6 * units.Mbps, 3 * units.Mbps}}},
		{"zero rung", Workload{Kind: KindStream, Ladder: []units.Bandwidth{0}}},
	} {
		if tc.wl.Validate() == nil {
			t.Errorf("%s: Validate(%+v) accepted a malformed workload", tc.name, tc.wl)
		}
	}
	if err := (Workload{Kind: KindReqRep}).WithDefaults().Validate(); err != nil {
		t.Errorf("default reqrep workload rejected: %v", err)
	}
	if err := (Workload{Kind: KindStream}).WithDefaults().Validate(); err != nil {
		t.Errorf("default stream workload rejected: %v", err)
	}
}

// TestLifecycle pins how an operation ends when the transport fails or the
// run horizon cuts it, and the return stream's serialization. The expected
// values were recorded from the goroutine-and-socket implementation this
// callback one replaced, with processed lower by one event per connection
// (its server procs each had a start event that only parked).
func TestLifecycle(t *testing.T) {
	// pause blackholes the uplink just after the first write, so the stall
	// watchdog fails the connection mid-operation 30 s later. The link
	// comes back afterwards: the client must stay stopped.
	pause := func(eng *sim.Engine, path *netem.Path, s *Session) {
		eng.ScheduleAt(s.Iperf().Conns()[0].StartDelay()+5*time.Millisecond, path.Hop(0).Pause)
		eng.ScheduleAt(45*time.Second, path.Hop(0).Resume)
	}
	// stall makes an idle connection look like it has data outstanding, so
	// the watchdog fails it inside the wait that follows the first
	// operation.
	stall := func(at time.Duration) func(*sim.Engine, *netem.Path, *Session) {
		return func(eng *sim.Engine, _ *netem.Path, s *Session) {
			eng.ScheduleAt(at, func() { s.Iperf().Conns()[0].CorruptInflightForTest(1) })
		}
	}
	reqrep := func(think time.Duration) Workload { return Workload{Kind: KindReqRep, Think: think} }
	stream := func(chunk time.Duration) Workload { return Workload{Kind: KindStream, Chunk: chunk} }
	for _, tc := range []struct {
		name  string
		wl    Workload
		conns int
		dur   time.Duration
		setup func(*sim.Engine, *netem.Path, *Session)

		completed, canceled, switches int64
		lat                           []float64
		processed                     uint64
	}{
		{name: "reqrep fails mid-operation", wl: reqrep(10 * time.Millisecond), conns: 1, dur: 60 * time.Second, setup: pause,
			canceled: 1, processed: 922},
		{name: "stream fails mid-operation", wl: stream(0), conns: 1, dur: 60 * time.Second, setup: pause,
			canceled: 1, processed: 831},
		{name: "failure in think cancels when the think ends", wl: reqrep(100 * time.Second), conns: 1, dur: 200 * time.Second, setup: stall(5 * time.Second),
			completed: 1, canceled: 1, lat: []float64{73.255529}, processed: 3427},
		{name: "failure in think then the horizon", wl: reqrep(100 * time.Second), conns: 1, dur: 45 * time.Second, setup: stall(5 * time.Second),
			completed: 1, lat: []float64{73.255529}, processed: 1876},
		{name: "failure in capture wait cancels after the ABR step", wl: stream(60 * time.Second), conns: 1, dur: 70 * time.Second, setup: stall(10 * time.Second),
			completed: 1, canceled: 1, switches: 1, lat: []float64{1831.31249}, processed: 62244},
		{name: "horizon mid-operation", wl: reqrep(time.Second), conns: 1, dur: 30 * time.Millisecond,
			canceled: 1, processed: 359},
		{name: "horizon in think", wl: reqrep(time.Second), conns: 1, dur: 300 * time.Millisecond,
			completed: 1, lat: []float64{73.255529}, processed: 1367},
		// ACKs can reopen send-buffer room after the response arrived; the
		// writable callback must not touch a thinking client. Same as the
		// row above plus the test's own event.
		{name: "writable in think", wl: reqrep(time.Second), conns: 1, dur: 300 * time.Millisecond,
			setup: func(eng *sim.Engine, _ *netem.Path, s *Session) {
				eng.ScheduleAt(200*time.Millisecond, s.clis[0].StreamWritable)
			},
			completed: 1, lat: []float64{73.255529}, processed: 1368},
		{name: "horizon in capture wait", wl: stream(time.Second), conns: 1, dur: 900 * time.Millisecond,
			completed: 1, lat: []float64{61.31249}, processed: 977},
		{name: "reqrep starts past the horizon", wl: reqrep(0), conns: 4, dur: time.Microsecond},
		{name: "stream starts past the horizon", wl: stream(0), conns: 4, dur: time.Microsecond},
		// 200 KiB at 8 Mbps is four pieces (three of 64 KiB), each queued
		// behind the last: the response takes 204.8 ms to serialize.
		{name: "pieced response", wl: Workload{Kind: KindReqRep, RespSize: 200 * units.KB, DownRate: 8 * units.Mbps}, conns: 1, dur: time.Second,
			completed: 3, canceled: 1, lat: []float64{263.676749, 263.676749, 278.055529}, processed: 5469},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, path, s := newRun(t, 1, tc.wl, tc.conns, tc.dur)
			if tc.setup != nil {
				tc.setup(eng, path, s)
			}
			_, st := s.Run()
			if st.Completed != tc.completed || st.Canceled != tc.canceled || st.Switches != tc.switches {
				t.Errorf("completed/canceled/switches = %d/%d/%d, want %d/%d/%d",
					st.Completed, st.Canceled, st.Switches, tc.completed, tc.canceled, tc.switches)
			}
			if !reflect.DeepEqual(st.LatMs, tc.lat) {
				t.Errorf("latencies %v ms, want %v", st.LatMs, tc.lat)
			}
			if got := eng.Processed(); got != tc.processed {
				t.Errorf("processed %d events, want %d", got, tc.processed)
			}
		})
	}
}

// TestCyclesDoNotAllocate pins the workload loop's steady state: timers and
// response arrivals are shared callbacks with the client as argument, so
// once the latency slice has room a request/response cycle and a stream
// chunk cycle allocate nothing.
func TestCyclesDoNotAllocate(t *testing.T) {
	for _, wl := range []Workload{
		{Kind: KindReqRep, Think: 5 * time.Millisecond},
		{Kind: KindStream},
	} {
		eng, _, s := newRun(t, 1, wl, 1, time.Hour)
		c := s.clis[0]
		c.lat = make([]float64, 0, 1024)
		cycle := func() {
			for n := c.completed; c.completed == n; {
				eng.Step()
			}
		}
		s.is.Start()
		for i := 0; i < 10; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: one operation cycle allocates %.1f objects, want 0", wl.Kind, allocs)
		}
	}
}
