package netem

import (
	"testing"
	"time"

	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

func mkPkt(flow int, sq int64, n units.DataSize) *seg.Packet {
	return &seg.Packet{Flow: flow, Seq: sq, Len: n}
}

// mustPipe builds a pipe or fails the test.
func mustPipe(t *testing.T, eng *sim.Engine, cfg PipeConfig, next PacketHandler) *Pipe {
	t.Helper()
	p, err := NewPipe(eng, cfg, next)
	if err != nil {
		t.Fatalf("NewPipe: %v", err)
	}
	return p
}

// mustPath builds a path or fails the test.
func mustPath(t *testing.T, eng *sim.Engine, cfg PathConfig) *Path {
	t.Helper()
	p, err := NewPath(eng, cfg)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	return p
}

func TestPipeSerializationTiming(t *testing.T) {
	eng := sim.New(1)
	var arrivals []time.Duration
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: 10 * units.Mbps, Delay: time.Millisecond},
		func(pkt *seg.Packet) { arrivals = append(arrivals, eng.Now()) })
	// 1250 bytes at 10Mbps = 1ms serialization.
	p.Enqueue(mkPkt(0, 0, 1250))
	p.Enqueue(mkPkt(0, 1250, 1250))
	eng.Run(time.Second)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	if arrivals[0] != 2*time.Millisecond { // 1ms tx + 1ms prop
		t.Errorf("first arrival at %v, want 2ms", arrivals[0])
	}
	if arrivals[1] != 3*time.Millisecond { // serialized behind the first
		t.Errorf("second arrival at %v, want 3ms", arrivals[1])
	}
}

func TestPipeDropTail(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: units.Mbps, QueuePackets: 5},
		func(pkt *seg.Packet) { delivered++ })
	accepted := 0
	for i := 0; i < 20; i++ {
		if p.Enqueue(mkPkt(0, int64(i)*1000, 1000)) {
			accepted++
		}
	}
	// One packet is in service, 5 fit the queue.
	if accepted != 6 {
		t.Fatalf("accepted = %d, want 6 (1 in service + 5 queued)", accepted)
	}
	st := p.Stats()
	if st.DropsQueue != 14 {
		t.Errorf("queue drops = %d, want 14", st.DropsQueue)
	}
	eng.Run(time.Minute)
	if delivered != 6 {
		t.Errorf("delivered = %d, want 6", delivered)
	}
}

func TestPipeRandomLossDeterministic(t *testing.T) {
	run := func() uint64 {
		eng := sim.New(99)
		p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: units.Gbps, LossRate: 0.3, QueuePackets: 10000},
			func(pkt *seg.Packet) {})
		var drops uint64
		for i := 0; i < 1000; i++ {
			if !p.Enqueue(mkPkt(0, int64(i)*1000, 1000)) {
				drops++ // the queue has room for all: every refusal is a loss draw
			}
		}
		return drops
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loss not deterministic across same-seed runs: %d vs %d", a, b)
	}
	if a < 200 || a > 400 {
		t.Errorf("drops = %d out of 1000 at 30%% loss, want ~300", a)
	}
}

func TestPipeFIFOOrder(t *testing.T) {
	eng := sim.New(1)
	var seqs []int64
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: units.Gbps},
		func(pkt *seg.Packet) { seqs = append(seqs, pkt.Seq) })
	for i := int64(0); i < 50; i++ {
		p.Enqueue(mkPkt(0, i, 100))
	}
	eng.Run(time.Second)
	for i := range seqs {
		if seqs[i] != int64(i) {
			t.Fatalf("out-of-order delivery: %v", seqs)
		}
	}
}

func TestPathEndToEnd(t *testing.T) {
	eng := sim.New(1)
	path := mustPath(t, eng, PathConfig{
		Hops: []PipeConfig{
			{Name: "a", Rate: units.Gbps, Delay: time.Millisecond},
			{Name: "b", Rate: units.Gbps, Delay: 2 * time.Millisecond},
		},
		AckDelay: 500 * time.Microsecond,
	})
	var got *seg.Packet
	var at time.Duration
	path.SetReceiver(func(pkt *seg.Packet) { got, at = pkt, eng.Now() })
	pkt := mkPkt(3, 100, seg.MSS)
	if !path.Send(pkt) {
		t.Fatal("send refused")
	}
	eng.Run(time.Second)
	if got == nil || got.Flow != 3 || got.Seq != 100 {
		t.Fatalf("wrong packet delivered: %+v", got)
	}
	// Two serializations of MSS at 1Gbps (~11.68µs each) + 3ms propagation.
	txOne := units.Gbps.TimeToSend(seg.MSS)
	want := 2*txOne + 3*time.Millisecond
	if at != want {
		t.Errorf("arrival at %v, want %v", at, want)
	}
	// Ack return.
	var ackAt time.Duration
	path.RegisterAckHandler(3, func(a *seg.Ack) { ackAt = eng.Now() })
	path.ReturnAckFlow(&seg.Ack{Flow: 3})
	eng.Run(2 * time.Second)
	if want := at + 500*time.Microsecond; ackAt == 0 || ackAt < want {
		t.Errorf("ack at %v, want >= %v", ackAt, want)
	}
}

func TestPathInterHopDropCounted(t *testing.T) {
	eng := sim.New(1)
	path := mustPath(t, eng, PathConfig{
		Hops: []PipeConfig{
			{Name: "fast", Rate: units.Gbps, QueuePackets: 1000},
			{Name: "slow", Rate: units.Mbps, QueuePackets: 2},
		},
	})
	path.SetReceiver(func(pkt *seg.Packet) {})
	for i := int64(0); i < 100; i++ {
		path.Send(mkPkt(0, i*1460, seg.MSS))
	}
	eng.Run(10 * time.Second)
	if path.TotalDrops() == 0 {
		t.Error("expected drops at the slow second hop")
	}
	if path.Hop(1).Stats().DropsQueue == 0 {
		t.Error("second hop should report queue drops")
	}
}

func TestPathMinRTT(t *testing.T) {
	eng := sim.New(1)
	path, err := EthernetLAN(eng, TC{})
	if err != nil {
		t.Fatal(err)
	}
	rtt := path.MinRTT()
	if rtt <= 0 || rtt > 2*time.Millisecond {
		t.Errorf("Ethernet LAN base RTT = %v, want sub-2ms", rtt)
	}
}

func TestEthernetPresetTCOverrides(t *testing.T) {
	eng := sim.New(1)
	path, err := EthernetLAN(eng, TC{Rate: 600 * units.Mbps, QueuePackets: 10, Loss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	router := path.Hop(1)
	if router.cfg.Rate != 600*units.Mbps {
		t.Errorf("router rate = %v, want 600Mbps", router.cfg.Rate)
	}
	if router.cfg.QueuePackets != 10 {
		t.Errorf("router queue = %d, want 10", router.cfg.QueuePackets)
	}
	if router.cfg.LossRate != 0.01 {
		t.Errorf("router loss = %v, want 0.01", router.cfg.LossRate)
	}
}

func TestCellularPresetIsBandwidthLimited(t *testing.T) {
	eng := sim.New(1)
	path, err := CellularLTE(eng, TC{})
	if err != nil {
		t.Fatal(err)
	}
	if r := path.Hop(0).cfg.Rate; r > 25*units.Mbps {
		t.Errorf("LTE uplink rate = %v, want <= 25Mbps (bandwidth-limited)", r)
	}
	if path.MinRTT() < 30*time.Millisecond {
		t.Errorf("LTE RTT = %v, want tens of ms", path.MinRTT())
	}
}

func TestWiFiModulatorVariesRate(t *testing.T) {
	eng := sim.New(7)
	path, mod, err := WiFiLAN(eng, TC{})
	if err != nil {
		t.Fatal(err)
	}
	air := path.Hop(0)
	base := air.cfg.Rate
	mod.Start()
	seen := map[units.Bandwidth]bool{}
	for i := 0; i < 50; i++ {
		eng.Run(eng.Now() + 20*time.Millisecond)
		seen[air.cfg.Rate] = true
		r := air.cfg.Rate
		if r < units.Bandwidth(float64(base)*0.55) || r > units.Bandwidth(float64(base)*1.10) {
			t.Fatalf("rate %v outside clamp around base %v", r, base)
		}
	}
	if len(seen) < 10 {
		t.Errorf("rate barely varies: %d distinct values", len(seen))
	}
}

func TestWiFiModulatorStartIdempotent(t *testing.T) {
	eng := sim.New(7)
	_, mod, err := WiFiLAN(eng, TC{})
	if err != nil {
		t.Fatal(err)
	}
	mod.Start()
	mod.Start()
	before := eng.Pending()
	eng.Run(100 * time.Millisecond)
	// A double-start would double the tick chain; pending events should
	// stay constant (one tick outstanding).
	if after := eng.Pending(); after > before {
		t.Errorf("pending events grew from %d to %d: double tick chain", before, after)
	}
}

func TestPipeConfigErrors(t *testing.T) {
	eng := sim.New(1)
	sink := func(*seg.Packet) {}
	cases := []struct {
		name string
		cfg  PipeConfig
	}{
		{"zero rate", PipeConfig{}},
		{"negative delay", PipeConfig{Rate: units.Gbps, Delay: -time.Second}},
		{"loss above one", PipeConfig{Rate: units.Gbps, LossRate: 1.5}},
		{"negative queue", PipeConfig{Rate: units.Gbps, QueuePackets: -1}},
		{"bad GE", PipeConfig{Rate: units.Gbps, GE: &GEConfig{PGoodToBad: 2}}},
	}
	for _, c := range cases {
		if _, err := NewPipe(eng, c.cfg, sink); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewPath(eng, PathConfig{}); err == nil {
		t.Error("empty path: expected error")
	}
	if _, err := NewPath(eng, PathConfig{Hops: []PipeConfig{{Rate: units.Gbps}}, AckDelay: -1}); err == nil {
		t.Error("negative ack delay: expected error")
	}
	// A nil downstream handler is a programmer error and still panics.
	defer func() {
		if recover() == nil {
			t.Error("nil next: expected panic")
		}
	}()
	NewPipe(eng, PipeConfig{Rate: units.Gbps}, nil)
}

func TestTCValidate(t *testing.T) {
	if err := (TC{Rate: 600 * units.Mbps, Loss: 0.01}).Validate(); err != nil {
		t.Errorf("valid TC rejected: %v", err)
	}
	bad := []TC{
		{Loss: -0.1}, {Loss: 1.01}, {Delay: -time.Second},
		{QueuePackets: -2}, {ECNThreshold: -1}, {ReorderJitter: -time.Millisecond},
	}
	for i, tc := range bad {
		if err := tc.Validate(); err == nil {
			t.Errorf("bad TC %d accepted", i)
		}
	}
	if _, err := EthernetLAN(sim.New(1), TC{Loss: 2}); err == nil {
		t.Error("preset accepted invalid TC")
	}
}

func TestPipePauseResume(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: units.Gbps, QueuePackets: 4},
		func(pkt *seg.Packet) { delivered++ })
	p.Pause()
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.Enqueue(mkPkt(0, int64(i)*1000, 1000)) {
			accepted++
		}
	}
	eng.Run(100 * time.Millisecond)
	if delivered != 0 {
		t.Fatalf("delivered %d during blackout, want 0", delivered)
	}
	// Queue holds 4, the rest tail-drop: exactly the blackout behaviour.
	if accepted != 4 {
		t.Errorf("accepted = %d, want 4 (queue cap)", accepted)
	}
	if p.Stats().DropsQueue != 6 {
		t.Errorf("queue drops = %d, want 6", p.Stats().DropsQueue)
	}
	p.Resume()
	eng.Run(200 * time.Millisecond)
	if delivered != 4 {
		t.Errorf("delivered = %d after resume, want 4", delivered)
	}
	// Double-resume must not double-serve.
	p.Resume()
	eng.Run(300 * time.Millisecond)
	if delivered != 4 {
		t.Errorf("delivered = %d after second resume, want 4", delivered)
	}
}

func TestPipeSetDelayAndLoss(t *testing.T) {
	eng := sim.New(1)
	var at time.Duration
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: 10 * units.Mbps, Delay: time.Millisecond},
		func(pkt *seg.Packet) { at = eng.Now() })
	if err := p.SetDelay(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p.Enqueue(mkPkt(0, 0, 1250)) // 1ms serialization
	eng.Run(time.Second)
	if at != 6*time.Millisecond {
		t.Errorf("arrival at %v, want 6ms (1ms tx + 5ms new delay)", at)
	}
	if err := p.SetDelay(-1); err == nil {
		t.Error("negative SetDelay accepted")
	}
	p.cfg.LossRate = 1
	if p.Enqueue(mkPkt(0, 1250, 1250)) {
		t.Error("packet accepted at 100% loss")
	}
}

func TestGilbertElliottBurstLoss(t *testing.T) {
	eng := sim.New(5)
	delivered := 0
	p := mustPipe(t, eng, PipeConfig{
		Name: "l", Rate: units.Gbps, QueuePackets: 100000,
		GE: &GEConfig{PGoodToBad: 0.02, PBadToGood: 0.1, LossGood: 0, LossBad: 1},
	}, func(pkt *seg.Packet) { delivered++ })
	drops, runs, inRun := 0, 0, false
	for i := 0; i < 5000; i++ {
		if p.Enqueue(mkPkt(0, int64(i)*100, 100)) {
			inRun = false
		} else {
			drops++
			if !inRun {
				runs++
				inRun = true
			}
		}
	}
	if drops == 0 {
		t.Fatal("GE model produced no loss")
	}
	// Bursty: mean run length 1/PBadToGood = 10 ≫ 1, so far fewer runs
	// than drops.
	if runs*3 > drops {
		t.Errorf("loss not bursty: %d drops in %d runs", drops, runs)
	}
	// Disabling restores lossless entry.
	if err := p.SetGE(nil); err != nil {
		t.Fatal(err)
	}
	if !p.Enqueue(mkPkt(0, 0, 100)) {
		t.Error("drop after disabling GE")
	}
}

func TestECNMarkingAtThreshold(t *testing.T) {
	eng := sim.New(1)
	var ce, total int
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: units.Mbps, QueuePackets: 50, ECNThreshold: 5},
		func(pkt *seg.Packet) {
			total++
			if pkt.CE {
				ce++
			}
		})
	for i := 0; i < 20; i++ {
		p.Enqueue(mkPkt(0, int64(i)*1000, 1000))
	}
	eng.Run(time.Minute)
	if total != 20 {
		t.Fatalf("delivered %d, want 20 (no drops below queue cap)", total)
	}
	// The first packet is in service; the queue then grows 1,2,3,4,5…:
	// packets arriving at depth >= 5 are marked.
	if ce == 0 {
		t.Fatal("no CE marks despite queue beyond threshold")
	}
	if p.Stats().DropsQueue != 0 {
		t.Error("marking should not drop below the queue cap")
	}
}

func TestECNOffNeverMarks(t *testing.T) {
	eng := sim.New(1)
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: units.Mbps, QueuePackets: 50},
		func(pkt *seg.Packet) {
			if pkt.CE {
				t.Error("CE mark with ECN disabled")
			}
		})
	for i := 0; i < 20; i++ {
		p.Enqueue(mkPkt(0, int64(i)*1000, 1000))
	}
	eng.Run(time.Minute)
}

func TestReorderJitterReorders(t *testing.T) {
	eng := sim.New(3)
	var seqs []int64
	p := mustPipe(t, eng, PipeConfig{Name: "l", Rate: units.Gbps, ReorderJitter: time.Millisecond},
		func(pkt *seg.Packet) { seqs = append(seqs, pkt.Seq) })
	for i := int64(0); i < 200; i++ {
		p.Enqueue(mkPkt(0, i, 100))
	}
	eng.Run(time.Second)
	if len(seqs) != 200 {
		t.Fatalf("delivered %d, want 200", len(seqs))
	}
	inOrder := true
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("1ms jitter on back-to-back packets produced no reordering")
	}
}
