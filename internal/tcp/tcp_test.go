package tcp

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// stubCC is a fixed-window congestion controller for exercising the
// transport machinery in isolation.
type stubCC struct {
	cwnd    int
	pacing  bool
	rate    units.Bandwidth
	acks    int
	events  []cc.Event
	samples []cc.RateSample
}

func (s *stubCC) Name() string { return "stub" }
func (s *stubCC) Init(c cc.Conn) {
	s.acks, s.events, s.samples = 0, nil, nil
	c.SetCwnd(s.cwnd)
	if s.rate > 0 {
		c.SetPacingRate(s.rate)
	}
}
func (s *stubCC) OnAck(c cc.Conn, rs *cc.RateSample) {
	s.acks++
	s.samples = append(s.samples, *rs)
	c.SetCwnd(s.cwnd)
	if s.rate > 0 {
		c.SetPacingRate(s.rate)
	}
}
func (s *stubCC) OnEvent(c cc.Conn, ev cc.Event) { s.events = append(s.events, ev) }
func (s *stubCC) AckCost() float64               { return 100 }
func (s *stubCC) WantsPacing() bool              { return s.pacing }

type harness struct {
	eng  *sim.Engine
	cpu  *cpumodel.CPU
	path *netem.Path
	conn *Conn
	rx   *Receiver
	stub *stubCC
}

func newHarness(t *testing.T, cfg Config, stub *stubCC, tc netem.TC) *harness {
	t.Helper()
	eng := sim.New(1)
	// A fast CPU so transport tests are not CPU-bound.
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, tc)
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	conn := NewConn(0, eng, cpu, path, cfg, func() cc.CongestionControl { return stub })
	rx := NewReceiver(eng, path, conn)
	demux := NewDemux()
	demux.Add(rx)
	path.SetReceiver(demux.Handle)
	return &harness{eng: eng, cpu: cpu, path: path, conn: conn, rx: rx, stub: stub}
}

func TestBulkTransferCompletes(t *testing.T) {
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{AppBytes: 1 * units.MB}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(5 * time.Second)
	if got := h.rx.GoodBytes(); got != 1*units.MB {
		t.Fatalf("delivered %v, want 1MB", got)
	}
	st := h.conn.Stats()
	if st.Retransmits != 0 {
		t.Errorf("retransmits = %d on a clean path, want 0", st.Retransmits)
	}
	if srtt := h.conn.SRTT(); srtt <= 0 {
		t.Errorf("srtt = %v, want > 0", srtt)
	}
}

func TestGoodputApproachesLineRate(t *testing.T) {
	stub := &stubCC{cwnd: 150}
	h := newHarness(t, Config{}, stub, netem.TC{})
	h.conn.Start()
	dur := 2 * time.Second
	h.eng.Run(dur)
	gp := units.BandwidthFromBytes(h.rx.GoodBytes(), dur)
	if gp < 850*units.Mbps {
		t.Fatalf("goodput = %v, want near 1Gbps line rate", gp)
	}
}

func TestCwndLimitsInflight(t *testing.T) {
	stub := &stubCC{cwnd: 4}
	h := newHarness(t, Config{}, stub, netem.TC{})
	h.conn.Start()
	for i := 0; i < 20000; i++ {
		if !h.eng.Step() {
			break
		}
		if fl := h.conn.PacketsInFlight(); fl > 4 {
			t.Fatalf("inflight %d exceeds cwnd 4", fl)
		}
	}
	if h.rx.GoodBytes() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestLossRecoveryViaSACK(t *testing.T) {
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{AppBytes: 2 * units.MB}, stub, netem.TC{Loss: 0.02})
	h.conn.Start()
	h.eng.Run(30 * time.Second)
	if got := h.rx.GoodBytes(); got != 2*units.MB {
		t.Fatalf("delivered %v with 2%% loss, want full 2MB", got)
	}
	st := h.conn.Stats()
	if st.Retransmits == 0 {
		t.Error("expected retransmissions under 2% loss")
	}
	foundRecovery := false
	for _, ev := range h.stub.events {
		if ev == cc.EventEnterRecovery {
			foundRecovery = true
		}
	}
	if !foundRecovery {
		t.Error("CC never notified of recovery entry")
	}
}

func TestHeavyLossStillCompletes(t *testing.T) {
	stub := &stubCC{cwnd: 32}
	h := newHarness(t, Config{AppBytes: 256 * units.KB}, stub, netem.TC{Loss: 0.15})
	h.conn.Start()
	h.eng.Run(2 * time.Minute)
	if got := h.rx.GoodBytes(); got != 256*units.KB {
		t.Fatalf("delivered %v under 15%% loss, want 256KB", got)
	}
}

func TestRTOFiresWhenAllAcksLost(t *testing.T) {
	// 100% loss at the router: nothing is ever delivered, so the RTO
	// must fire and mark everything lost.
	stub := &stubCC{cwnd: 10}
	h := newHarness(t, Config{AppBytes: 64 * units.KB}, stub, netem.TC{Loss: 1.0})
	h.conn.Start()
	h.eng.Run(3 * time.Second)
	foundLoss := false
	for _, ev := range h.stub.events {
		if ev == cc.EventEnterLoss {
			foundLoss = true
		}
	}
	if !foundLoss {
		t.Fatal("RTO never fired under 100% loss")
	}
	if h.conn.Stats().Lost == 0 {
		t.Error("no packets marked lost")
	}
	if h.cpu.OpCycles(cpumodel.OpRTO) == 0 {
		t.Error("RTO not charged to CPU")
	}
}

func TestPacingGateSpacesSends(t *testing.T) {
	// 10 Mbps pacing: 1MB should take ~0.8s, far longer than line rate.
	stub := &stubCC{cwnd: 500, pacing: true, rate: 10 * units.Mbps}
	h := newHarness(t, Config{AppBytes: 1 * units.MB}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(400 * time.Millisecond)
	got := h.rx.GoodBytes()
	// At 10Mbps, 400ms carries at most ~500KB.
	if got > 600*units.KB {
		t.Fatalf("delivered %v in 400ms at 10Mbps pacing — pacer not limiting", got)
	}
	h.eng.Run(3 * time.Second)
	if got := h.rx.GoodBytes(); got != 1*units.MB {
		t.Fatalf("delivered %v, want full 1MB", got)
	}
	if h.cpu.OpCycles(cpumodel.OpPacingTimer) == 0 {
		t.Error("no pacing-timer events charged to CPU")
	}
}

func TestUnpacedChargesNoPacingTimers(t *testing.T) {
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{AppBytes: 1 * units.MB}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(5 * time.Second)
	if n := h.cpu.OpCycles(cpumodel.OpPacingTimer); n != 0 {
		t.Errorf("unpaced connection charged %v pacing-timer cycles", n)
	}
}

func TestPacingOverrideForcesOn(t *testing.T) {
	on := true
	stub := &stubCC{cwnd: 64, rate: 20 * units.Mbps}
	h := newHarness(t, Config{AppBytes: 512 * units.KB, PacingOverride: &on}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(5 * time.Second)
	if h.cpu.OpCycles(cpumodel.OpPacingTimer) == 0 {
		t.Error("forced pacing produced no pacing-timer events")
	}
}

func TestPacingOverrideForcesOff(t *testing.T) {
	off := false
	stub := &stubCC{cwnd: 64, pacing: true, rate: 10 * units.Mbps}
	h := newHarness(t, Config{AppBytes: 1 * units.MB, PacingOverride: &off}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(time.Second)
	if got := h.rx.GoodBytes(); got != 1*units.MB {
		t.Fatalf("pacing-off transfer incomplete: %v", got)
	}
	if n := h.cpu.OpCycles(cpumodel.OpPacingTimer); n != 0 {
		t.Errorf("pacing disabled but %v timer cycles charged", n)
	}
}

func TestRateSamplesMeasureDeliveryRate(t *testing.T) {
	stub := &stubCC{cwnd: 400, pacing: true, rate: 50 * units.Mbps}
	h := newHarness(t, Config{}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(3 * time.Second)
	// Look at late samples (steady state): delivery rate should be near
	// the 50 Mbps pacing rate, clearly below line rate.
	var got []units.Bandwidth
	for _, rs := range h.stub.samples[len(h.stub.samples)*3/4:] {
		if rs.Valid() {
			got = append(got, rs.DeliveryRate(seg.MSS))
		}
	}
	if len(got) == 0 {
		t.Fatal("no valid rate samples")
	}
	var sum float64
	for _, g := range got {
		sum += float64(g)
	}
	mean := units.Bandwidth(sum / float64(len(got)))
	if mean < 30*units.Mbps || mean > 120*units.Mbps {
		t.Errorf("mean delivery-rate sample = %v, want near 50Mbps", mean)
	}
}

func TestRTTInflatesUnderCPULoad(t *testing.T) {
	// Same transfer on a fast and a crushingly slow CPU: the slow CPU's
	// measured RTT must be higher because ACK processing queues.
	// cwnd 40 stays below the path BDP so the fast CPU never builds a
	// standing devnic queue; any RTT increase on the slow CPU is then
	// ACK-processing backlog.
	run := func(speed float64) time.Duration {
		eng := sim.New(1)
		cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), speed)
		path, err := netem.EthernetLAN(eng, netem.TC{})
		if err != nil {
			t.Fatalf("EthernetLAN: %v", err)
		}
		stub := &stubCC{cwnd: 40}
		conn := NewConn(0, eng, cpu, path, Config{}, func() cc.CongestionControl { return stub })
		rx := NewReceiver(eng, path, conn)
		d := NewDemux()
		d.Add(rx)
		path.SetReceiver(d.Handle)
		conn.Start()
		eng.Run(2 * time.Second)
		return conn.SRTT()
	}
	fast := run(5e9)
	slow := run(80e6)
	if slow <= fast {
		t.Errorf("slow-CPU RTT %v not above fast-CPU RTT %v", slow, fast)
	}
}

func TestAppBytesLimitExact(t *testing.T) {
	// Non-MSS-multiple size: the tail segment must be short.
	n := units.DataSize(100000) // not divisible by 1460
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{AppBytes: n}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(5 * time.Second)
	if got := h.rx.GoodBytes(); got != n {
		t.Fatalf("delivered %v, want exactly %v", got, n)
	}
}

// TestBulkIsStreamWrittenUpFront pins what makes one send source enough:
// Config.AppBytes behaves exactly as a stream whose writer wrote AppBytes
// bytes and closed it before Start. One byte, sub-MSS, one MSS, a short tail,
// whole 16 KB copy chunks and many of them with an odd tail must simulate
// alike — events, sender counters, goodput — with and without the app core's
// copy pipeline, on a clean and on a lossy path.
func TestBulkIsStreamWrittenUpFront(t *testing.T) {
	type outcome struct {
		processed uint64
		stats     ConnStats
		good      units.DataSize
	}
	simulate := func(t *testing.T, n units.DataSize, appCPU bool, loss float64, stream bool) outcome {
		cfg := Config{AppBytes: n}
		if stream {
			cfg.AppBytes = 0
		}
		h := newHarness(t, cfg, &stubCC{cwnd: 32}, netem.TC{Loss: loss})
		if appCPU {
			h.conn.arena.appCPU = cpumodel.NewCPU(h.eng, cpumodel.DefaultCosts(), 1e9)
		}
		if stream {
			h.conn.SetStream()
			if w, err := h.conn.StreamWrite(int64(n)); w != int64(n) || err != nil {
				t.Fatalf("StreamWrite(%d) = %d, %v", int64(n), w, err)
			}
			h.conn.CloseStream()
		}
		h.conn.Start()
		h.eng.Run(30 * time.Second)
		return outcome{h.eng.Processed(), h.conn.Stats(), h.rx.GoodBytes()}
	}
	for _, n := range []units.DataSize{1, 1000, 1448, seg.MSS, 4096, 64 * units.KB, 200*units.KB + 7} {
		for _, appCPU := range []bool{false, true} {
			for _, loss := range []float64{0, 0.02} {
				t.Run(fmt.Sprintf("n=%d/app=%v/loss=%v", int64(n), appCPU, loss), func(t *testing.T) {
					bulk := simulate(t, n, appCPU, loss, false)
					stream := simulate(t, n, appCPU, loss, true)
					if bulk.good != n {
						t.Errorf("bulk delivered %d of %d bytes", int64(bulk.good), int64(n))
					}
					if !reflect.DeepEqual(bulk, stream) {
						t.Errorf("bulk and stream differ:\nbulk   %+v\nstream %+v", bulk, stream)
					}
				})
			}
		}
	}
}

func TestStartDelayHonored(t *testing.T) {
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	a := NewArena(eng, cpu, nil, path, Config{AppBytes: 64 * units.KB}, nil, nil, nil)
	pc := a.Open(0, 100*time.Millisecond, func() cc.CongestionControl { return &stubCC{cwnd: 10} })
	if pc.Conn.StartDelay() != 100*time.Millisecond {
		t.Fatalf("start delay %v, want 100ms", pc.Conn.StartDelay())
	}
	demux := NewDemux()
	demux.Add(pc.Rx)
	path.SetReceiver(demux.Handle)
	pc.Conn.Start()
	eng.Run(50 * time.Millisecond)
	if pc.Rx.GoodBytes() != 0 {
		t.Fatal("data delivered before start delay")
	}
	eng.Run(2 * time.Second)
	if pc.Rx.GoodBytes() != 64*units.KB {
		t.Fatal("transfer incomplete after start delay")
	}
}

func TestStopCancelsTimers(t *testing.T) {
	stub := &stubCC{cwnd: 10, pacing: true, rate: units.Mbps}
	h := newHarness(t, Config{}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(100 * time.Millisecond)
	h.conn.Stop()
	before := h.rx.GoodBytes()
	h.eng.Run(2 * time.Second)
	// A few packets may still be in flight at Stop; after they drain,
	// nothing new should be sent.
	after := h.rx.GoodBytes()
	if after > before+64*units.KB {
		t.Errorf("data kept flowing after Stop: %v -> %v", before, after)
	}
}

func TestGROCoalescesAcks(t *testing.T) {
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{AppBytes: 1 * units.MB}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(5 * time.Second)
	pkts := uint64(1*units.MB/seg.MSS) + 1
	acks := uint64(stub.acks)
	// GRO acknowledges whole bundles: far fewer ACKs than packets, but
	// at least one per 64KB of data.
	if acks >= pkts/2 {
		t.Errorf("acks = %d for %d packets; GRO should coalesce bundles", acks, pkts)
	}
	if minAcks := uint64(1*units.MB/(64*units.KB)) - 1; acks < minAcks {
		t.Errorf("acks = %d below the 64KB-bundle floor %d", acks, minAcks)
	}
}

func TestCPUChargesAllOps(t *testing.T) {
	stub := &stubCC{cwnd: 64, pacing: true, rate: 100 * units.Mbps}
	h := newHarness(t, Config{AppBytes: 2 * units.MB}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(5 * time.Second)
	for _, op := range []cpumodel.Op{cpumodel.OpSegXmit, cpumodel.OpSKBXmit, cpumodel.OpAckProcess, cpumodel.OpPacingTimer} {
		if h.cpu.OpCycles(op) == 0 {
			t.Errorf("no %v operations charged", op)
		}
	}
}

func TestScoreboardInvariantUnderLoss(t *testing.T) {
	stub := &stubCC{cwnd: 48}
	h := newHarness(t, Config{AppBytes: 1 * units.MB}, stub, netem.TC{Loss: 0.05})
	h.conn.Start()
	for i := 0; i < 400000; i++ {
		if !h.eng.Step() {
			break
		}
		if h.conn.inflight < 0 {
			t.Fatal("negative inflight")
		}
		// inflight must equal the number of in-flight-marked entries.
		n := 0
		for j := 0; j < h.conn.board.liveLen(); j++ {
			if h.conn.board.at(j).inFlite {
				n++
			}
		}
		if n != h.conn.inflight {
			t.Fatalf("inflight counter %d != scoreboard %d", h.conn.inflight, n)
		}
	}
}

func TestReceiverReassemblyExhaustive(t *testing.T) {
	// Drive the receiver directly with a permuted arrival order.
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 1e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	stub := &stubCC{cwnd: 10}
	conn := NewConn(7, eng, cpu, path, Config{}, func() cc.CongestionControl { return stub })
	rx := NewReceiver(eng, path, conn)
	order := []int64{0, 2, 1, 5, 4, 3, 7, 9, 8, 6}
	for _, i := range order {
		rx.OnPacket(&seg.Packet{Flow: 7, Seq: i * 1000, Len: 1000, SentAt: time.Microsecond})
	}
	if rx.GoodBytes() != 10000 {
		t.Fatalf("goodput = %v after permuted arrivals, want 10000", rx.GoodBytes())
	}
	// Duplicate arrival must not double-count.
	rx.OnPacket(&seg.Packet{Flow: 7, Seq: 3000, Len: 1000, SentAt: time.Microsecond})
	if rx.GoodBytes() != 10000 {
		t.Fatalf("duplicate inflated goodput to %v", rx.GoodBytes())
	}
	// ...and is acknowledged at once, while the sender still has it in
	// flight: the ACK reaches the sender after one return-path delay.
	eng.Run(time.Second)
	acks := stub.acks
	rx.OnPacket(&seg.Packet{Flow: 7, Seq: 3000, Len: 1000, SentAt: time.Microsecond})
	eng.Run(2 * time.Second)
	if stub.acks != acks+1 {
		t.Errorf("duplicate drew %d ACKs, want 1", stub.acks-acks)
	}
}

func TestMinRTTTracksFloor(t *testing.T) {
	stub := &stubCC{cwnd: 32}
	h := newHarness(t, Config{AppBytes: 4 * units.MB}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(5 * time.Second)
	base := h.path.MinRTT()
	got := h.conn.MinRTT()
	if got < base/2 || got > base*5 {
		t.Errorf("min RTT estimate %v far from path base %v", got, base)
	}
}

func TestReorderingRobustness(t *testing.T) {
	// 300µs of per-packet jitter at the router reorders wire bursts; the
	// transfer must complete without a retransmission storm (the RACK
	// gate and dupthresh absorb reordering).
	stub := &stubCC{cwnd: 48}
	h := newHarness(t, Config{AppBytes: 2 * units.MB}, stub, netem.TC{ReorderJitter: 300 * time.Microsecond})
	h.conn.Start()
	h.eng.Run(30 * time.Second)
	if got := h.rx.GoodBytes(); got != 2*units.MB {
		t.Fatalf("delivered %v under reordering, want 2MB", got)
	}
	st := h.conn.Stats()
	pkts := int64(2*units.MB/seg.MSS) + 1
	if st.Retransmits > pkts/10 {
		t.Errorf("retransmits = %d (>10%% of %d packets): reordering mistaken for loss",
			st.Retransmits, pkts)
	}
}

func TestCEMarksCounted(t *testing.T) {
	stub := &stubCC{cwnd: 256}
	// Slow router with ECN marking: the sender must observe CE echoes.
	h := newHarness(t, Config{AppBytes: 2 * units.MB}, stub,
		netem.TC{Rate: 100 * units.Mbps, QueuePackets: 100, ECNThreshold: 10})
	h.conn.Start()
	h.eng.Run(30 * time.Second)
	if h.rx.GoodBytes() != 2*units.MB {
		t.Fatal("transfer incomplete")
	}
	var echoed int64
	for _, rs := range stub.samples {
		echoed += rs.CECount
	}
	if echoed == 0 {
		t.Error("no CE marks observed despite AQM threshold")
	}
}

// TestNewReceiverNeedsConnWiring pins that NewReceiver hands back the
// receiver NewConn built into conn's slot, and refuses an engine or path
// other than the ones that receiver was wired to.
func TestNewReceiverNeedsConnWiring(t *testing.T) {
	h := newHarness(t, Config{}, &stubCC{cwnd: 10}, netem.TC{})
	if rx := NewReceiver(h.eng, h.path, h.conn); rx != h.rx || rx.conn != h.conn {
		t.Fatal("NewReceiver built a second receiver for one connection")
	}
	defer func() {
		msg, _ := recover().(string)
		if want := "tcp: NewReceiver for conn 0 on another engine or path than the conn's"; msg != want {
			t.Errorf("recovered %q, want %q", msg, want)
		}
	}()
	NewReceiver(sim.New(2), h.path, h.conn)
}
