package tcp

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// poolHarness wires a ConnPool to a demux'd path the way the flows session
// does, with the aggregate sink and flow table attached.
type poolHarness struct {
	eng   *sim.Engine
	cpu   *cpumodel.CPU
	ftab  *cpumodel.FlowTable
	pool  *ConnPool
	demux *Demux
	path  *netem.Path
	agg   *AggStats
	segs  *seg.Pool
}

func newPoolHarness(t *testing.T) *poolHarness {
	t.Helper()
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	segs := seg.NewPool()
	path.SetPool(segs)
	demux := NewDemux()
	demux.SetPool(segs)
	path.SetReceiver(demux.Handle)
	agg := &AggStats{}
	ftab := cpumodel.NewFlowTable(16, 1, cpumodel.DefaultCosts())
	pool := NewConnPool(eng, cpu, nil, path, Config{}, segs, agg, ftab)
	return &poolHarness{eng: eng, cpu: cpu, ftab: ftab, pool: pool, demux: demux, path: path, agg: agg, segs: segs}
}

func streamFactory() cc.Factory {
	return func() cc.CongestionControl { return &stubCC{cwnd: 32} }
}

// runFlow opens flow id on the pool, streams size bytes to completion and
// releases the pair, mirroring the flows session's per-flow lifecycle.
func (h *poolHarness) runFlow(t *testing.T, id int, size int64, factory cc.Factory) {
	t.Helper()
	pc := h.pool.Get(id, factory)
	c := pc.Conn
	c.SetStream()
	done := false
	var written int64
	var pump func()
	pump = func() {
		for written < size {
			n, err := c.StreamWrite(size - written)
			if err != nil || n == 0 {
				return
			}
			written += n
		}
		c.CloseStream()
	}
	c.SetStreamEvents(streamFuncs{pump, func() { done = true }, func(error) { t.Fatalf("flow %d failed", id) }})
	h.demux.Add(pc.Rx)
	c.Start()
	pump()
	h.eng.Run(h.eng.Now() + 5*time.Second)
	if !done {
		t.Fatalf("flow %d did not drain", id)
	}
	h.demux.Remove(id)
	h.path.RetireFlow(id)
	h.pool.Put(pc)
}

func TestConnPoolReuse(t *testing.T) {
	h := newPoolHarness(t)
	factory := bbr.Factory()
	const flows = 5
	for i := 0; i < flows; i++ {
		h.runFlow(t, i, int64(64*units.KB), factory)
		// Let the dying conn quiesce (its held ACKs drain through the CPU)
		// before the next Get so reuse actually happens.
		h.eng.Run(h.eng.Now() + time.Second)
	}
	st := h.pool.Stats()
	if st.Gets != flows || st.Puts != flows {
		t.Fatalf("gets/puts = %d/%d, want %d/%d", st.Gets, st.Puts, flows, flows)
	}
	if st.Created != 1 || st.Reuses != flows-1 {
		t.Fatalf("created=%d reuses=%d, want one construction and %d reuses", st.Created, st.Reuses, flows-1)
	}
	if !st.Balanced() || st.Free != 1 {
		t.Fatalf("end census %+v, want balanced with one free pair", st)
	}
	if hw := st.OutstandingHW; hw != 1 {
		t.Fatalf("outstanding high-water %d, want 1 (flows were sequential)", hw)
	}
	if want := units.DataSize(flows) * 64 * units.KB; h.agg.GoodBytes() != want {
		t.Fatalf("aggregate goodput %d, want %d", h.agg.GoodBytes(), want)
	}
	if ps := h.segs.Stats(); ps.OutstandingPackets != 0 || ps.OutstandingAcks != 0 {
		t.Fatalf("segment pool leaks %d packets / %d acks", ps.OutstandingPackets, ps.OutstandingAcks)
	}

	// Recycling itself is free: a Get that reuses a pair re-initialises the
	// congestion module the slot kept instead of calling the factory, which
	// builds one per call, so it and the Put that returns the pair touch the
	// heap not at all.
	if raceEnabled {
		return
	}
	const cycles = 100
	id := flows
	h.pool.Put(h.pool.Get(id+cycles+1, factory)) // the path's per-flow ACK table now reaches every id used below
	allocs := testing.AllocsPerRun(cycles, func() {
		id++
		pc := h.pool.Get(id, factory)
		h.demux.Add(pc.Rx)
		h.demux.Remove(id)
		h.path.RetireFlow(id)
		h.pool.Put(pc)
	})
	if allocs != 0 {
		t.Errorf("a recycled Get+Put allocates %.0f objects, want 0", allocs)
	}
	if st := h.pool.Stats(); st.Created != 1 || !st.Balanced() {
		t.Errorf("census after %d more cycles %+v, want still one pair, balanced", cycles, st)
	}
}

// drainSink is a stream-event sink that records the drain without
// allocating.
type drainSink struct {
	t       *testing.T
	drained bool
}

func (d *drainSink) StreamWritable()    {}
func (d *drainSink) StreamDrained()     { d.drained = true }
func (d *drainSink) StreamFailed(error) { d.t.Fatal("flow failed") }

// TestConnPoolStartedFlowAllocs extends the budget above to a flow that
// runs: a recycled pair carries a 4 KB stream to its drain, is put back and
// quiesces, and the whole cycle, congestion module included, allocates
// nothing.
func TestConnPoolStartedFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes malloc counts")
	}
	h := newPoolHarness(t)
	factory := bbr.Factory()
	const cycles = 50
	h.pool.Put(h.pool.Get(cycles+10, factory)) // the path's per-flow ACK table now reaches every id used below
	sink := &drainSink{t: t}
	id := 0
	cycle := func() {
		pc := h.pool.Get(id, factory)
		c := pc.Conn
		c.SetStream()
		sink.drained = false
		c.SetStreamEvents(sink)
		h.demux.Add(pc.Rx)
		c.Start()
		c.StreamWrite(int64(4 * units.KB))
		c.CloseStream()
		h.eng.Run(h.eng.Now() + time.Second)
		if !sink.drained {
			t.Fatalf("flow %d did not drain", id)
		}
		h.demux.Remove(id)
		h.path.RetireFlow(id)
		h.pool.Put(pc)
		h.eng.Run(h.eng.Now() + time.Second)
		if st := h.pool.Stats(); st.Free != 1 {
			t.Fatalf("flow %d: census %+v, want the pair quiesced and free", id, st)
		}
		id++
	}
	cycle() // warm the segment pool and the engine's arena
	if allocs := testing.AllocsPerRun(cycles, cycle); allocs != 0 {
		t.Errorf("a recycled flow's Get, 4 KB stream, Put and quiesce allocate %.1f objects, want 0", allocs)
	}
	if st := h.pool.Stats(); st.Created != 1 || !st.Balanced() {
		t.Errorf("census after %d flows %+v, want one pair, balanced", id, st)
	}
}

// drainCount is a stream-event sink that counts drains without allocating.
type drainCount struct {
	t *testing.T
	n int
}

func (d *drainCount) StreamWritable()    {}
func (d *drainCount) StreamDrained()     { d.n++ }
func (d *drainCount) StreamFailed(error) { d.t.Fatal("flow failed") }

// TestConnPoolFirstUseAllocs budgets what a slot costs the first time it
// carries a flow: 4 KB flows open on unused slots, twenty every
// millisecond, so that their modules, packets and ACKs are new, as when a
// churn run fills its population. Slots, congestion modules, scoreboard
// entries, packets and ACKs all come from chunks, so a new slot costs a
// small fraction of one allocation; one object each built singly costs more
// than one per slot.
func TestConnPoolFirstUseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes malloc counts")
	}
	const flows = 2000
	h := newPoolHarness(t)
	factory := bbr.Factory()
	h.pool.Put(h.pool.Get(flows, factory)) // the path's per-flow ACK table now reaches every id used below
	h.eng.Run(h.eng.Now() + time.Second)
	h.pool.DropFree()
	sink := &drainCount{t: t}
	pcs := make([]*PooledConn, flows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := range pcs {
		if id%20 == 0 {
			h.eng.Run(h.eng.Now() + time.Millisecond)
		}
		pc := h.pool.Get(id, factory)
		pc.Conn.SetStream()
		pc.Conn.SetStreamEvents(sink)
		h.demux.Add(pc.Rx)
		pc.Conn.Start()
		pc.Conn.StreamWrite(int64(4 * units.KB))
		pc.Conn.CloseStream()
		pcs[id] = pc
	}
	h.eng.Run(h.eng.Now() + time.Second)
	for id, pc := range pcs {
		h.demux.Remove(id)
		h.path.RetireFlow(id)
		h.pool.Put(pc)
	}
	h.eng.Run(h.eng.Now() + time.Second)
	runtime.ReadMemStats(&after)
	if sink.n != flows {
		t.Fatalf("%d of %d flows drained", sink.n, flows)
	}
	if st := h.pool.Stats(); st.Created != flows+1 || !st.Balanced() {
		t.Fatalf("census %+v, want %d new pairs, balanced", st, flows)
	}
	if n := h.agg.Retransmits(); n != 0 {
		t.Fatalf("%d retransmissions: the budget is for first use, not recovery", n)
	}
	const budget = 0.25 // measured 0.117; 1.10 when each module and ACK was allocated singly
	perSlot := float64(after.Mallocs-before.Mallocs) / flows
	t.Logf("%.3f allocations per new slot, budget %.2f", perSlot, budget)
	if perSlot > budget {
		t.Errorf("a new slot's first 4 KB flow allocates %.3f objects, budget %.2f", perSlot, budget)
	}
}

// TestConnPoolOneFactory pins the one-factory rule. A slot keeps its
// congestion module across flows, so a Get that would recycle a slot another
// factory built panics rather than quietly handing back that factory's
// module. The rule binds recycled slots only: a new slot takes whatever
// factory it is handed, as iperf's pairs of one arena run a CC mix.
func TestConnPoolOneFactory(t *testing.T) {
	h := newPoolHarness(t)
	first, second := streamFactory(), bbr.Factory()
	a := h.pool.Get(0, first)
	b := h.pool.Get(1, second) // a new slot: a second factory is fine
	if _, ok := b.Conn.CC().(*stubCC); ok {
		t.Fatal("the second factory's slot runs the first factory's module")
	}
	h.pool.Put(a)
	h.pool.Put(b) // recycled first
	if st := h.pool.Stats(); st.Free != 2 {
		t.Fatalf("census %+v, want both unstarted pairs free at Put", st)
	}
	h.pool.Put(h.pool.Get(2, second)) // recycles b's slot with b's factory
	defer func() {
		msg, _ := recover().(string)
		if want := "tcp: ConnPool.Get of conn 3 recycles a slot another congestion-control factory built"; msg != want {
			t.Errorf("recovered %q, want %q", msg, want)
		}
	}()
	h.pool.Get(3, first)
}

func TestConnPoolReclaimDrainsDying(t *testing.T) {
	h := newPoolHarness(t)
	// Open several flows, push bytes, and cut them off mid-transfer — the
	// run-horizon path. Put parks them dying; Reclaim must free them all.
	var pcs []*PooledConn
	for i := 0; i < 4; i++ {
		pc := h.pool.Get(i, streamFactory())
		pc.Conn.SetStream()
		pc.Conn.SetStreamEvents(streamFuncs{func() {}, func() {}, func(error) {}})
		h.demux.Add(pc.Rx)
		pc.Conn.Start()
		pc.Conn.StreamWrite(int64(1 * units.MB))
		pcs = append(pcs, pc)
	}
	h.eng.Run(50 * time.Millisecond)
	for i, pc := range pcs {
		h.demux.Remove(i)
		h.path.RetireFlow(i)
		h.pool.Put(pc)
	}
	h.path.Reclaim()
	h.pool.Reclaim()
	st := h.pool.Stats()
	if !st.Balanced() || st.Free != 4 {
		t.Fatalf("post-Reclaim census %+v, want balanced with 4 free", st)
	}
	if ps := h.segs.Stats(); ps.OutstandingPackets != 0 || ps.OutstandingAcks != 0 {
		t.Fatalf("segment pool leaks %d packets / %d acks after Reclaim", ps.OutstandingPackets, ps.OutstandingAcks)
	}
}

func TestConnPoolDoublePutPanics(t *testing.T) {
	h := newPoolHarness(t)
	pc := h.pool.Get(0, streamFactory())
	pc.Conn.SetStream()
	pc.Conn.SetStreamEvents(streamFuncs{func() {}, func() {}, func(error) {}})
	pc.Conn.Start()
	h.pool.Put(pc)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put did not panic")
		}
	}()
	h.pool.Put(pc)
}

func TestConnPoolIdsNeverReused(t *testing.T) {
	h := newPoolHarness(t)
	factory := streamFactory()
	pc := h.pool.Get(100, factory)
	if pc.Conn.ID() != 100 {
		t.Fatalf("fresh conn id %d, want 100", pc.Conn.ID())
	}
	pc.Conn.SetStream()
	pc.Conn.SetStreamEvents(streamFuncs{func() {}, func() {}, func(error) {}})
	pc.Conn.Start()
	h.pool.Put(pc)
	h.pool.Reclaim()
	pc2 := h.pool.Get(101, factory)
	if pc2 != pc {
		t.Fatal("expected the recycled pair back")
	}
	if pc2.Conn.ID() != 101 {
		t.Fatalf("recycled conn id %d, want fresh id 101", pc2.Conn.ID())
	}
}

// TestUncountedCallbackPanics is the recycle detector. A callback that did
// not go through later or job — the shape of one that outlived the
// incarnation that issued it — lands on a count of zero and panics, naming
// the connection, instead of quietly driving whichever flow owns the object
// next. Under DropFree a recycled slot is never handed out again, so its
// count stays zero and such a callback fails every time, not by chance.
func TestUncountedCallbackPanics(t *testing.T) {
	h := newPoolHarness(t)
	pc := h.pool.Get(3, streamFactory())
	pc.Conn.SetStream()
	pc.Conn.Start()
	h.eng.Run(time.Millisecond) // the kick lands; nothing to send
	h.pool.Put(pc)
	if st := h.pool.Stats(); st.Free != 1 {
		t.Fatalf("census %+v, want the idle pair recycled at Put", st)
	}
	h.pool.DropFree()
	h.eng.ScheduleP(0, connTrySendLater, pc.Conn)
	defer func() {
		msg, _ := recover().(string)
		if want := "tcp: conn 3: a callback ran with no work pending"; msg != want {
			t.Errorf("recovered %q, want %q", msg, want)
		}
	}()
	h.eng.Run(h.eng.Now() + time.Millisecond)
}

// sameFreshState walks two values of one struct type field by field and
// reports every difference that could make them simulate differently: scalars
// must be equal, pointers identical, funcs and interfaces alike (both nil, or
// the same dynamic type holding equal values), timers not pending, slices and
// arrays zero in every element. skip names the wiring that legitimately
// differs between the two. Walking the type, not a list of fields, is the
// point: a field added to Conn or Receiver later is compared without anyone
// remembering to add it here.
func sameFreshState(t *testing.T, path string, a, b reflect.Value, skip map[string]bool) {
	t.Helper()
	if skip[path] {
		return
	}
	// Unexported fields are read through their address.
	open := func(v reflect.Value) reflect.Value {
		return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	a, b = open(a), open(b)
	if tm, ok := a.Interface().(sim.Timer); ok {
		if tm.Pending() || b.Interface().(sim.Timer).Pending() {
			t.Errorf("%s: timer pending", path)
		}
		return
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			sameFreshState(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), skip)
		}
	case reflect.Slice, reflect.Array:
		for _, v := range []reflect.Value{a, b} {
			for i := 0; i < v.Len(); i++ {
				if !v.Index(i).IsZero() {
					t.Errorf("%s[%d]: leftover %v", path, i, v.Index(i))
				}
			}
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			t.Errorf("%s: nil on one side only", path)
		}
	case reflect.Interface:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("%s: %#v vs %#v", path, a.Interface(), b.Interface())
		}
	default: // scalars and pointers
		if !a.Equal(b) {
			t.Errorf("%s: %v vs %v", path, a, b)
		}
	}
}

// TestResetRestoresFreshState runs a flow through a pooled pair, lets the
// pool recycle it, and compares every field of the recycled Conn and Receiver
// with a pair NewConn and NewReceiver just built for the same flow id, and
// with a pair the pool built on an unused slot: one initialiser, three ways
// in, no difference the simulation could see.
func TestResetRestoresFreshState(t *testing.T) {
	h := newPoolHarness(t)
	paced := func() cc.CongestionControl { return &stubCC{cwnd: 32, pacing: true, rate: 50 * units.Mbps} }
	first := h.pool.Get(0, paced)
	h.pool.Put(first)
	h.pool.DropFree() // keep slot 0 out of the way: it stands in for "unused" below
	h.runFlow(t, 1, int64(256*units.KB), paced)
	h.eng.Run(h.eng.Now() + time.Second)

	const id = 7
	recycled := h.pool.Get(id, paced)
	if st := h.pool.Stats(); st.Reuses != 1 {
		t.Fatalf("census %+v, want the second Get to recycle", st)
	}
	slotFresh := h.pool.Get(id, paced)
	if st := h.pool.Stats(); st.Created != 3 {
		t.Fatalf("census %+v, want the third Get to open an unused slot", st)
	}
	solo := NewConn(id, h.eng, h.cpu, h.path, Config{}, paced)
	solo.SetPool(h.segs)
	solo.arena.agg, solo.arena.ftab = h.agg, h.ftab
	soloRx := NewReceiver(h.eng, h.path, solo)

	for _, fresh := range []struct {
		name string
		conn *Conn
		rx   *Receiver
		skip map[string]bool
	}{
		// A solo connection brings an arena of its own, compared below.
		{"NewConn", solo, soloRx, map[string]bool{"Conn.home": true, "Conn.arena": true, "Receiver.arena": true, "Receiver.conn": true}},
		{"unused slot", slotFresh.Conn, slotFresh.Rx, map[string]bool{"Conn.home": true, "Receiver.conn": true}},
	} {
		t.Run(fresh.name, func(t *testing.T) {
			sameFreshState(t, "Conn", reflect.ValueOf(recycled.Conn).Elem(), reflect.ValueOf(fresh.conn).Elem(), fresh.skip)
			sameFreshState(t, "Receiver", reflect.ValueOf(recycled.Rx).Elem(), reflect.ValueOf(fresh.rx).Elem(), fresh.skip)
		})
	}
	// The solo arena's wiring equals the pool's; only the memory differs.
	sameFreshState(t, "Arena", reflect.ValueOf(recycled.Conn.arena).Elem(), reflect.ValueOf(solo.arena).Elem(),
		map[string]bool{"Arena.infos": true, "Arena.slots": true})
	if recycled.Conn.home == nil || recycled.Conn.arena != h.pool.arena || solo.arena == recycled.Conn.arena ||
		recycled.Rx.arena != recycled.Conn.arena || recycled.Rx.conn != recycled.Conn {
		t.Fatal("skipped wiring fields are not set")
	}
}

// TestRetiredEntryWaitsForParkedBatch pins the one place where the
// arena-wide entry list could leak state between connections. A's transmit
// job is parked with a lost entry in its retransmission batch; an ACK that
// was queued ahead of the job cum-acks that entry; B opens a segment and its
// RTO marks it lost, all before A's job comes off the CPU. If the retired
// entry had reached the shared list, B would have been handed it, and A's
// emit — which tells a stale batch entry from a live one by its flags —
// would retransmit B's sequence number under A's flow id and count it in
// flight. Both of an arena's shapes share entries this way: a pool's
// recycled slots of one congestion control, and iperf's pairs, never
// recycled, each with its own module of a CC mix.
func TestRetiredEntryWaitsForParkedBatch(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		h := newPoolHarness(t)
		factory := streamFactory()
		retiredEntryWaits(t, h, h.pool.arena, func(id int) *Conn { return h.pool.Get(id, factory).Conn })
	})
	t.Run("iperf", func(t *testing.T) {
		h := newPoolHarness(t)
		a := NewArena(h.eng, h.cpu, nil, h.path, Config{}, h.segs, h.agg, nil)
		a.Reserve(2)
		mix := []cc.Factory{streamFactory(), bbr.Factory()}
		retiredEntryWaits(t, h, a, func(id int) *Conn { return a.Open(id, 0, mix[id]).Conn })
	})
}

// retiredEntryWaits runs TestRetiredEntryWaitsForParkedBatch on connections 0
// and 1 that get opens on arena a.
func retiredEntryWaits(t *testing.T, h *poolHarness, a *Arena, get func(id int) *Conn) {
	open := func(id int) *Conn {
		c := get(id)
		if c.arena != a {
			t.Fatalf("conn %d is not on the arena under test", id)
		}
		c.SetStream()
		c.SetStreamEvents(streamFuncs{func() {}, func() {}, func(error) {}})
		return c
	}
	a0, b := open(0), open(1)
	mss := int64(seg.MSS)

	// A sends four segments into a demux that does not know it, so nothing
	// comes back; then its RTO marks them lost and parks the head for
	// retransmission behind the CPU.
	a0.Start()
	a0.StreamWrite(4 * mss)
	for i := 0; a0.board.liveLen() < 4 || a0.xmitBusy; i++ {
		if i > 1000 || !h.eng.Step() {
			t.Fatalf("A never sent its four segments (board %d)", a0.board.liveLen())
		}
	}
	a0.pending++ // what onRTOTimer's job would have counted
	a0.enterLoss()
	head := a0.board.at(0)
	if !a0.xmitBusy || len(a0.xmitRetx) != 1 || a0.xmitRetx[0] != head {
		t.Fatalf("A's head is not parked for retransmission (busy=%v batch=%d)", a0.xmitBusy, len(a0.xmitRetx))
	}

	// The ACK that was already ahead of the job in the CPU queue.
	ack := h.segs.GetAck()
	ack.Flow, ack.CumAck = a0.id, mss
	a0.pendingAcks.Push(ack)
	h.agg.heldAcks++
	a0.pending++ // what OnAckArrival's job would have counted
	a0.processAck(ack)
	if a0.board.liveLen() != 3 || !head.acked {
		t.Fatalf("the ACK did not retire A's head (board %d)", a0.board.liveLen())
	}

	// B's transmit job opens a segment and B's RTO condemns it — what
	// emit and enterLoss do to an entry, without the network in between.
	q := a.infos.get()
	q.seq, q.len, q.inFlite = 0, seg.MSS, true
	b.board.add(q, &a.infos)
	b.sndNxt, b.inflight = mss, 1
	b.pending++
	b.enterLoss()
	if q == head {
		t.Error("B was handed the entry A's parked batch still points at")
	}

	sentBefore := a0.retransTotal
	connEmit(a0)
	if a0.retransTotal != sentBefore {
		t.Errorf("A retransmitted %d segments from a batch whose only entry was acked", a0.retransTotal-sentBefore)
	}
	if !q.lost || q.inFlite {
		t.Errorf("B's lost entry was touched: lost=%v inFlite=%v", q.lost, q.inFlite)
	}
	for _, c := range []*Conn{a0, b} {
		if au := c.Audit(); au.Inflight != au.BoardInflight {
			t.Errorf("conn %d: inflight counter %d, scoreboard says %d", c.id, au.Inflight, au.BoardInflight)
		}
	}
	// Once the job has run the entry is anyone's.
	if a0.retired != nil || a.infos.free != head {
		t.Error("the retired entry did not reach the arena after A's job ran")
	}
}
