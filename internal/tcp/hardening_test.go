package tcp

import (
	"strings"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// TestRTOBackoffExponential: under total loss each successive timeout must
// wait twice as long as the previous, clamped at maxRTO.
func TestRTOBackoffExponential(t *testing.T) {
	stub := &stubCC{cwnd: 10}
	h := newHarness(t, Config{AppBytes: 64 * units.KB}, stub, netem.TC{Loss: 1.0})
	h.conn.Start()
	var fires []time.Duration
	var last uint
	for h.eng.Now() < 20*time.Second && h.eng.Step() {
		if h.conn.rtoBackoff > last {
			last = h.conn.rtoBackoff
			fires = append(fires, h.eng.Now())
		}
	}
	if len(fires) < 4 {
		t.Fatalf("only %d RTOs in 20 s of total loss", len(fires))
	}
	prev := time.Duration(0)
	for i := 1; i < len(fires); i++ {
		gap := fires[i] - fires[i-1]
		if prev > 0 && float64(gap) < 1.8*float64(prev) {
			t.Errorf("RTO %d gap %v is not ~2× previous %v", i, gap, prev)
		}
		prev = gap
	}
	// Deep in a backoff run the doubling stops at the clamp.
	h.conn.rtoBackoff = 10
	if got := h.conn.rto(); got != maxRTO {
		t.Errorf("rto after 10 backoffs = %v, want the %v clamp", got, maxRTO)
	}
}

// TestWatchdogReportsStall: the stall watchdog must flag a connection that
// has pending work but makes no delivery progress; under total loss it is
// what ends the connection.
func TestWatchdogReportsStall(t *testing.T) {
	stub := &stubCC{cwnd: 10}
	h := newHarness(t, Config{AppBytes: 64 * units.KB}, stub, netem.TC{Loss: 1.0})
	h.conn.Start()
	h.eng.Run(stallTimeout + 2*time.Second)
	err := h.conn.Stats().Failed
	if err == nil {
		t.Fatal("watchdog never fired on a stalled connection")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Errorf("unexpected failure reason: %v", err)
	}
}

// TestSpuriousRTOUndo: a link pause longer than the RTO delays — but does
// not drop — the outstanding window. The first ACK after resume echoes an
// original transmission sent before the timeout, so F-RTO must undo the
// collapse, notify the CC, and the transfer must still complete in full.
func TestSpuriousRTOUndo(t *testing.T) {
	stub := &stubCC{cwnd: 10}
	// Shape the path to ~20 Mbps / 20 ms so the 256KB transfer is still in
	// flight when the pause hits.
	h := newHarness(t, Config{AppBytes: 256 * units.KB}, stub,
		netem.TC{Rate: 20 * units.Mbps, Delay: 20 * time.Millisecond})
	h.eng.Schedule(50*time.Millisecond, func() { h.path.Hop(0).Pause() })
	h.eng.Schedule(1050*time.Millisecond, func() { h.path.Hop(0).Resume() })
	h.conn.Start()
	h.eng.Run(10 * time.Second)

	st := h.conn.Stats()
	if st.SpuriousRTOs == 0 {
		t.Fatal("1 s pause > RTO produced no spurious-RTO undo")
	}
	found := false
	for _, ev := range h.stub.events {
		if ev == cc.EventSpuriousRTO {
			found = true
		}
	}
	if !found {
		t.Error("CC never notified of the spurious RTO")
	}
	if got := h.rx.GoodBytes(); got != 256*units.KB {
		t.Errorf("delivered %v after pause/resume, want full 256KB", got)
	}
	if err := h.conn.Stats().Failed; err != nil {
		t.Errorf("healthy pause/resume marked the conn failed: %v", err)
	}
}

// TestGenuineRTONotUndone: under real loss (everything dropped, nothing
// delayed) recovery is driven by retransmissions, so F-RTO must NOT undo.
func TestGenuineRTONotUndone(t *testing.T) {
	stub := &stubCC{cwnd: 10}
	h := newHarness(t, Config{AppBytes: 64 * units.KB}, stub, netem.TC{})
	// Drop (not hold) the first flight: 100% loss for the first 300 ms.
	if err := h.path.Hop(0).SetGE(&netem.GEConfig{LossGood: 1}); err != nil {
		t.Fatal(err)
	}
	h.eng.Schedule(300*time.Millisecond, func() { _ = h.path.Hop(0).SetGE(nil) })
	h.conn.Start()
	h.eng.Run(10 * time.Second)
	if st := h.conn.Stats(); st.SpuriousRTOs != 0 {
		t.Errorf("genuine loss-driven RTO was undone %d times", st.SpuriousRTOs)
	}
	if got := h.rx.GoodBytes(); got != 64*units.KB {
		t.Errorf("delivered %v, want full 64KB", got)
	}
}

// TestCwndRestartAfterIdle: RFC 2861 — after an idle period the window
// decays one halving per idle RTO down to the restart window.
func TestCwndRestartAfterIdle(t *testing.T) {
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{AppBytes: 64 * units.KB}, stub, netem.TC{})
	h.conn.Start()
	h.eng.Run(2 * time.Second) // transfer completes; connection sits idle
	c := h.conn
	if c.inflight != 0 {
		t.Fatalf("transfer not drained: inflight %d", c.inflight)
	}
	c.cwnd = 64
	now := c.arena.eng.Now()
	c.lastSendAt = now - 4*c.rto() // four RTOs idle
	c.cwndRestartAfterIdle(now)
	if c.cwnd >= 64 {
		t.Errorf("cwnd %d not reduced after 4 idle RTOs", c.cwnd)
	}
	if c.cwnd < initialCwnd {
		t.Errorf("cwnd %d decayed below the restart window %d", c.cwnd, initialCwnd)
	}

	// A short idle (under one RTO) must leave the window alone.
	c.cwnd = 64
	c.lastSendAt = now - c.rto()/2
	c.cwndRestartAfterIdle(now)
	if c.cwnd != 64 {
		t.Errorf("cwnd %d changed after sub-RTO idle", c.cwnd)
	}
}

// --- stream-source mode hardening -------------------------------------------

// streamDriver feeds a stream-mode connection from engine context the way
// the flows and apps layers do: write as room frees (the writable
// callback), half-close when everything is buffered, and record
// drain/failure.
type streamDriver struct {
	c              *Conn
	total, written int64
	closedStream   bool
	drained        bool
	failed         error
}

// streamFuncs adapts three closures to StreamEvents for tests.
type streamFuncs struct {
	writable, drained func()
	failed            func(error)
}

func (f streamFuncs) StreamWritable()        { f.writable() }
func (f streamFuncs) StreamDrained()         { f.drained() }
func (f streamFuncs) StreamFailed(err error) { f.failed(err) }

func newStreamDriver(c *Conn, total int64) *streamDriver {
	d := &streamDriver{c: c, total: total}
	c.SetStream()
	c.SetStreamEvents(streamFuncs{d.pump, func() { d.drained = true }, func(err error) { d.failed = err }})
	return d
}

func (d *streamDriver) pump() {
	for d.written < d.total {
		n, err := d.c.StreamWrite(d.total - d.written)
		if err != nil || n == 0 {
			return
		}
		d.written += n
	}
	if !d.closedStream {
		d.closedStream = true
		d.c.CloseStream()
	}
}

// TestStreamTransferDrains: a stream-mode source must deliver exactly the
// written bytes and fire the drain callback once everything is acked.
func TestStreamTransferDrains(t *testing.T) {
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{}, stub, netem.TC{})
	const total = 256 * 1024
	d := newStreamDriver(h.conn, total)
	h.conn.Start()
	h.eng.Schedule(0, d.pump)
	h.eng.Run(5 * time.Second)
	if got := h.rx.GoodBytes(); got != total {
		t.Fatalf("delivered %v, want %d", got, total)
	}
	if !d.drained {
		t.Error("drain callback never fired")
	}
	if err := h.conn.Stats().Failed; err != nil {
		t.Errorf("clean stream transfer failed the conn: %v", err)
	}
}

// TestStreamCloseIdempotent: CloseStream must return a stable end offset,
// writes after it must fail, and a stream closed before it drained must
// report drained once the FIN point is acknowledged — per-transaction
// open/close safety.
func TestStreamCloseIdempotent(t *testing.T) {
	stub := &stubCC{cwnd: 64}
	h := newHarness(t, Config{}, stub, netem.TC{})
	const total = 64 * 1024
	d := newStreamDriver(h.conn, total)
	h.conn.Start()
	h.eng.Schedule(0, d.pump)
	h.eng.Schedule(100*time.Microsecond, func() {
		end1 := h.conn.CloseStream()
		end2 := h.conn.CloseStream()
		if end1 != end2 {
			t.Errorf("CloseStream end moved: %d then %d", end1, end2)
		}
		if _, err := h.conn.StreamWrite(1); err == nil {
			t.Error("StreamWrite after CloseStream succeeded")
		}
	})
	h.eng.Run(5 * time.Second)
	if got, want := h.rx.GoodBytes(), units.DataSize(d.written); got != want {
		t.Fatalf("delivered %v, want the %v written before close", got, want)
	}
	if !d.drained {
		t.Error("stream never reported drained after Close")
	}
}

// TestStreamFailureSurfaced: when the transport gives up, the failure
// callback must fire and subsequent StreamWrites must return the error.
func TestStreamFailureSurfaced(t *testing.T) {
	stub := &stubCC{cwnd: 10}
	h := newHarness(t, Config{}, stub, netem.TC{Loss: 1.0})
	d := newStreamDriver(h.conn, 64*1024)
	h.conn.Start()
	h.eng.Schedule(0, d.pump)
	h.eng.Run(60 * time.Second)
	if d.failed == nil {
		t.Fatal("failure callback never fired under total loss")
	}
	if _, err := h.conn.StreamWrite(1); err == nil {
		t.Error("StreamWrite after transport failure succeeded")
	}
	if d.drained {
		t.Error("failed stream reported drained")
	}
}

// TestPerTransactionChurn: repeated short open/transfer/close cycles over
// one shared path and demux — the request/response pattern — must deliver
// every transaction in full with no leaks, stalls, or double-stop issues.
func TestPerTransactionChurn(t *testing.T) {
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	demux := NewDemux()
	path.SetReceiver(demux.Handle)
	var end time.Duration
	for i := 0; i < 5; i++ {
		stub := &stubCC{cwnd: 64}
		conn := NewConn(i, eng, cpu, path, Config{}, func() cc.CongestionControl { return stub })
		d := newStreamDriver(conn, 64*1024)
		rx := NewReceiver(eng, path, conn)
		demux.Add(rx)
		conn.Start()
		eng.Schedule(0, d.pump)
		end += time.Second
		eng.Run(end)
		if got := rx.GoodBytes(); got != 64*1024 {
			t.Fatalf("transaction %d delivered %v, want 64KB", i, got)
		}
		if !d.drained {
			t.Fatalf("transaction %d never drained", i)
		}
		conn.Stop()
		conn.Stop() // double-stop per transaction must be safe
		if err := conn.Stats().Failed; err != nil {
			t.Fatalf("transaction %d failed: %v", i, err)
		}
	}
}
