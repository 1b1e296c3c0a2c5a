package tcp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/pacing"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/stats"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// devnicHighWatermark models TSQ/qdisc backpressure: when the device NIC
// queue is deeper than this, the stack defers instead of dropping locally.
// Linux TSQ allows ~tcp_limit_output_bytes per socket in the qdisc, so a
// 20-connection unpaced sender can keep most of the 1000-slot txqueue full.
const devnicHighWatermark = 600

// minRTTWindow is the transport's windowed min-RTT filter length
// (sysctl tcp_min_rtt_wlen is 300 s; runs here are much shorter).
const minRTTWindow = 30 * time.Second

// Conn is one simulated TCP connection's sender side, running on the
// phone: it owns the scoreboard, congestion state, pacer and timers, and
// charges all its work to the device CPU.
type Conn struct {
	id  int
	eng *sim.Engine
	cpu *cpumodel.CPU
	// appCPU, when set, executes the tcp_sendmsg payload copy in
	// process context on the application core, in parallel with the
	// softirq core's transmit path. nil means the copy is not modelled
	// (unit tests) — the softirq path alone gates sends.
	appCPU *cpumodel.CPU
	path   *netem.Path
	cfg    Config
	ccMod  cc.CongestionControl
	pacer  pacing.Pacer

	// Sequence space (bytes).
	sndNxt, sndUna int64
	board          scoreboard
	inflight       int

	cwnd, ssthresh int
	pacingRate     units.Bandwidth
	state          cc.State
	recoveryPoint  int64

	// Delivery accounting (packets), per tcp_rate.c.
	delivered       int64
	deliveredTime   time.Duration
	firstTx         time.Duration
	appLimited      int64
	lostTotal       int64
	retransTotal    int64
	lastECEResponse time.Duration

	srtt, rttvar time.Duration
	minRTT       stats.WindowedMin

	rtoTimer    sim.Timer
	rtoBackoff  uint
	pacingTimer sim.Timer
	xmitBusy    bool
	cwndLimited bool
	started     bool
	done        bool

	// Hardened-recovery state.
	segsSent     int64         // new-data segments ever created
	lastSendAt   time.Duration // last (re)transmission release
	lastProgress time.Duration // last delivery progress (watchdog)
	watchdog     sim.Timer
	failedErr    error // non-nil once the connection is declared dead
	spuriousRTOs int64
	// F-RTO undo snapshot, taken at the first RTO of a backoff run.
	undoValid    bool
	undoCwnd     int
	undoSsthresh int
	undoAt       time.Duration

	// The send source is a byte stream: streamTotal is the write offset so
	// far; streamEnd is the offset at CloseStream (-1 while the stream is
	// open). A bulk source is a stream written up front (see open);
	// SetStream empties it for an application that pushes bytes with
	// StreamWrite and half-closes with CloseStream — the byte-stream
	// surface the flows and apps layers drive.
	streamTotal  int64
	streamEnd    int64
	drainedFired bool
	kicked       bool // Start's kick has run; writes may transmit
	events       StreamEvents

	// Application-source pipeline (when appCPU is set): the sender task
	// keeps the socket buffer filled ahead of transmission, so the
	// per-byte copy cost loads the app core without sitting inside the
	// pacing period — exactly how iperf3's write loop behaves.
	buffered  units.DataSize // copied into the sndbuf, not yet sent
	appCopied int64          // total bytes ever copied
	appBusy   bool
	appChunk  units.DataSize // size of the copy in progress (appBusy guards it)

	maxBufOcc units.DataSize

	// Telemetry (nil = disabled, the default): bus receives structured
	// state/recovery/pacing events; met holds the per-connection
	// histograms. Hot paths guard every use with a nil-check.
	bus *telemetry.Bus
	met *telemetry.ConnMetrics

	// agg, when set, is the run-wide O(1) aggregate counter sink
	// (SetAggregates); ftab, when set, is the NIC flow-table cost model
	// charged per arriving ACK (a ConnPool's slots get it). Both nil by
	// default.
	agg  *AggStats
	ftab *cpumodel.FlowTable

	// home is the pool slot this connection lives in (nil when built by
	// NewConn). A stopped connection that reaches quiescence while its
	// slot is in the dying set hands itself back to the pool.
	home *PooledConn

	// pending counts the calls the connection has scheduled on the engine
	// (later) or queued behind a CPU model (job) that have not yet run.
	// Stop cannot cancel them, so a stopped connection is quiescent only
	// once each has landed (see land) on the incarnation that issued it,
	// never on the next flow to own this object.
	pending int

	// pool is the run's packet/ACK recycler (nil in unit tests — every
	// acquire then heap-allocates). infos supplies scoreboard entries and
	// takes them back as the cumulative ACK retires them: the ConnPool's
	// shared one, or the connection's own when NewConn built it.
	pool  *seg.Pool
	infos *infoPool

	// pendingAcks holds ACKs the network has delivered but the CPU model
	// has not yet processed (between OnAckArrival and processAck), so they
	// are reachable for the run-end reclaim.
	pendingAcks seg.AckList
	ack         ackScratch

	// Transmit-job state parked on the connection while the CPU model
	// serializes the batch (xmitBusy guards a single outstanding job);
	// xmitRetx is the reusable retransmission batch buffer. retired chains
	// the entries the cumulative ACK dropped while the job was parked (see
	// retire).
	xmitRetx     []*pktInfo
	xmitNew      int
	xmitPaceFrom time.Duration
	retired      *pktInfo
}

// Engine and CPU-model callbacks. They are package-level functions that take
// the connection as their argument (sim.Engine.ScheduleP, Timer.Reschedule on
// such an item, cpumodel.CPU.SubmitP), so neither building a connection nor
// re-arming one of its timers allocates a closure or a method value. The
// timer callbacks (RTO, pacing gate, watchdog) are cancelled by Stop; every
// other one is issued through later or job and opens with land.
func connKick(v any)          { v.(*Conn).kick() }
func connTrySendLater(v any)  { v.(*Conn).trySendLater() }
func connPacingExpired(v any) { v.(*Conn).pacingExpired() }
func connRTOExpired(v any)    { v.(*Conn).onRTOTimer() }
func connEnterLoss(v any)     { v.(*Conn).enterLoss() }
func connWatchdog(v any)      { v.(*Conn).watchdogCheck() }
func connAppCopied(v any)     { v.(*Conn).appCopyDone() }

// connProcessAck completes the oldest held ACK: the CPU model serves jobs
// first come first served (cpumodel.CPU.SubmitP's contract), so ACK jobs
// finish in the order the ACKs arrived.
func connProcessAck(v any) {
	c := v.(*Conn)
	a := c.pendingAcks.Oldest()
	if a == nil {
		panic(fmt.Sprintf("tcp: conn %d: an ACK job completed with no ACK held", c.id))
	}
	c.processAck(a)
}

// connEmit completes the transmit job parked on the connection.
func connEmit(v any) {
	c := v.(*Conn)
	c.emit(c.xmitPaceFrom, c.xmitRetx, c.xmitNew)
}

// later schedules fn on the engine d from now, counted in pending.
func (c *Conn) later(d time.Duration, fn func(any)) {
	c.pending++
	c.eng.ScheduleP(d, fn, c)
}

// job queues fn behind cycles of op on cpu, counted in pending, and returns
// the job's completion time.
func (c *Conn) job(cpu *cpumodel.CPU, op cpumodel.Op, cycles float64, fn func(any)) time.Duration {
	c.pending++
	return cpu.SubmitP(op, cycles, fn, c)
}

// land is the prologue of every callback later and job issue, run once the
// callback has released what its own job held (its busy gate, the held ACK,
// the entries retired under a parked batch). It uncounts the call and
// reports whether the connection is still running; on a stopped one it
// hands the slot back to the pool if that was the last pending call. A call
// that lands with nothing pending was never counted, or outlived the
// incarnation that issued it: it panics rather than perturb whichever flow
// owns the object now.
func (c *Conn) land() bool {
	if c.pending == 0 {
		panic(fmt.Sprintf("tcp: conn %d: a callback ran with no work pending", c.id))
	}
	c.pending--
	if c.done {
		c.maybeQuiet()
		return false
	}
	return true
}

// soloConn is what NewConn allocates: a connection together with the
// scoreboard-entry pool that pooled connections share, in one object.
type soloConn struct {
	Conn
	infos infoPool
}

// NewConn creates a connection with the given flow id. The congestion
// module is built from factory. Call Start to begin transmitting.
func NewConn(id int, eng *sim.Engine, cpu *cpumodel.CPU, path *netem.Path, cfg Config, factory cc.Factory) *Conn {
	s := &soloConn{}
	s.Conn = Conn{eng: eng, cpu: cpu, path: path, cfg: cfg.withDefaults(), infos: &s.infos}
	s.Conn.open(id, factory)
	return &s.Conn
}

// open starts a flow on a connection that holds its wiring (the environment,
// which outlives every flow the object carries; cfg with its defaults) and
// at most the congestion module of an earlier flow, and is otherwise zero:
// the one initialiser behind NewConn, a pool slot's first use and Reset. The
// factory runs only when there is no module yet; Init re-initialises a kept
// one to exactly what the factory would have built.
func (c *Conn) open(id int, factory cc.Factory) {
	c.id = id
	if c.ccMod == nil {
		c.ccMod = factory()
	}
	c.cwnd = initialCwnd
	c.ssthresh = 1 << 30
	c.minRTT = stats.NewWindowedMin(uint64(minRTTWindow))
	pcfg := c.cfg.Pacing
	pcfg.Enabled = c.ccMod.WantsPacing()
	if c.cfg.PacingOverride != nil {
		pcfg.Enabled = *c.cfg.PacingOverride
	}
	c.pacer.Reset(pcfg)
	c.ccMod.Init(c)
	// The bulk source: a stream whose writer wrote AppBytes and closed it,
	// or one that never ends when AppBytes is 0.
	c.streamTotal, c.streamEnd = unbounded, -1
	if n := int64(c.cfg.AppBytes); n > 0 {
		c.streamTotal, c.streamEnd = n, n
	}
}

// unbounded is the length of an endless source: it never runs dry, never
// drains and accepts no writes.
const unbounded = math.MaxInt64

// SetPool attaches the run's packet/ACK pool. Call before Start.
func (c *Conn) SetPool(pool *seg.Pool) { c.pool = pool }

// ID returns the flow id.
func (c *Conn) ID() int { return c.id }

// CC returns the connection's congestion-control module.
func (c *Conn) CC() cc.CongestionControl { return c.ccMod }

// SetAppCPU attaches the application core that pays the per-byte sendmsg
// copy cost. Call before Start.
func (c *Conn) SetAppCPU(cpu *cpumodel.CPU) { c.appCPU = cpu }

// SetTelemetry attaches the event bus and per-connection instruments. Call
// before Start. Either argument may be nil (that subsystem stays off). The
// congestion module's state machine, when it implements cc.ModeReporter,
// reports its transitions onto the bus; the pacer's send-quantum and
// inter-send-gap instruments are wired here too.
func (c *Conn) SetTelemetry(bus *telemetry.Bus, met *telemetry.ConnMetrics) {
	c.bus = bus
	c.met = met
	if met != nil {
		c.pacer.SetInstruments(met.SendQuantum, met.InterSendGap)
	}
	if bus != nil {
		if mr, ok := c.ccMod.(cc.ModeReporter); ok {
			id := c.id
			mr.SetModeListener(func(old, new string) {
				bus.Emit(telemetry.Event{Kind: telemetry.KindCCMode, Conn: id, Old: old, New: new})
			})
		}
	}
}

// setState transitions the loss-recovery state, emitting a KindTCPState
// event on change.
func (c *Conn) setState(s cc.State) {
	if s == c.state {
		return
	}
	if c.bus != nil {
		c.bus.Emit(telemetry.Event{
			Kind: telemetry.KindTCPState, Conn: c.id,
			Old: c.state.String(), New: s.String(),
		})
	}
	c.state = s
}

// Start schedules the first transmission (after cfg.StartDelay).
func (c *Conn) Start() {
	if c.started {
		return
	}
	c.started = true
	c.later(c.cfg.StartDelay, connKick)
}

// kick is Start's deferred first transmission.
func (c *Conn) kick() {
	if !c.land() {
		return
	}
	c.kicked = true
	c.lastProgress = c.eng.Now()
	c.armWatchdog()
	c.appPump()
	c.trySend()
}

// appCopyChunk is how much one iperf write copies into the socket buffer.
const appCopyChunk = 16 * units.KB

// appPump keeps the socket buffer filled: whenever there is room (and the
// application still has data), it charges one chunk's copy to the app core
// and re-arms itself on completion. The chunk in flight is parked on the
// connection (appBusy guarantees a single outstanding copy), so the
// completion callback is the shared connAppCopied, not a closure per chunk.
func (c *Conn) appPump() {
	if c.appCPU == nil || c.appBusy || c.done {
		return
	}
	rem := c.streamTotal - c.appCopied
	if rem <= 0 {
		return
	}
	// A sub-MSS tail still copies (it will push as a short segment);
	// otherwise wait for at least one MSS of room.
	room := c.cfg.SndBuf - c.buffered - units.DataSize(c.inflight)*seg.MSS
	if int64(room) < min(rem, int64(seg.MSS)) {
		return
	}
	chunk := min(appCopyChunk, room)
	if int64(chunk) > rem {
		chunk = units.DataSize(rem)
	}
	c.appBusy = true
	c.appChunk = chunk
	c.job(c.appCPU, cpumodel.OpDataCopy, float64(chunk)*c.cpu.Costs().CopyPerByte, connAppCopied)
}

// appCopyDone runs at the app core's completion of one chunk copy.
func (c *Conn) appCopyDone() {
	c.appBusy = false
	if !c.land() {
		return
	}
	c.buffered += c.appChunk
	c.appCopied += int64(c.appChunk)
	c.appPump()
	c.trySend()
}

// Stop halts transmission and cancels timers.
func (c *Conn) Stop() {
	c.done = true
	c.rtoTimer.Stop()
	c.pacingTimer.Stop()
	c.watchdog.Stop()
}

// fail declares the connection dead: it records the reason and halts all
// activity. Idempotent.
func (c *Conn) fail(err error) {
	if c.done {
		return
	}
	c.failedErr = err
	if c.bus != nil {
		c.bus.Emit(telemetry.Event{Kind: telemetry.KindConnFailed, Conn: c.id, New: err.Error()})
	}
	c.Stop()
	if c.events != nil {
		c.events.StreamFailed(err)
	}
}

// --- stream-source mode -----------------------------------------------------

// SetStream replaces the bulk source open built from Config.AppBytes with an
// empty open stream: the application pushes bytes with StreamWrite (bounded
// by the send buffer) and ends the stream with CloseStream. Call before
// Start.
func (c *Conn) SetStream() {
	c.streamTotal, c.streamEnd = 0, -1
}

// StreamEvents receives a stream-mode connection's notifications. The owner
// of the stream implements it on a record it already keeps per flow, so
// installing it costs no closure.
type StreamEvents interface {
	// StreamWritable fires when acknowledged progress reopens send-buffer
	// room.
	StreamWritable()
	// StreamDrained fires once everything written before CloseStream has
	// been cumulatively acknowledged.
	StreamDrained()
	// StreamFailed fires when the transport declares the connection dead.
	StreamFailed(err error)
}

// SetStreamEvents installs the stream-mode notification sink. Call before
// Start.
func (c *Conn) SetStreamEvents(h StreamEvents) { c.events = h }

// StreamRoom returns how many more bytes StreamWrite would accept now:
// the send buffer minus everything written but not yet cumulatively
// acknowledged. Zero once the stream is closed or the connection is done,
// and always for an endless source.
func (c *Conn) StreamRoom() int64 {
	if c.done || c.streamEnd >= 0 {
		return 0
	}
	room := int64(c.cfg.SndBuf) - (c.streamTotal - c.sndUna)
	if room < 0 {
		room = 0
	}
	return room
}

// StreamWrite offers n bytes to the send side and returns how many were
// accepted (possibly zero when the send buffer is full — the writable
// callback announces new room). Writing on a closed stream or a failed
// connection is an error.
func (c *Conn) StreamWrite(n int64) (int64, error) {
	if c.failedErr != nil {
		return 0, c.failedErr
	}
	if c.done || c.streamEnd >= 0 {
		return 0, fmt.Errorf("tcp: conn %d: write on closed stream", c.id)
	}
	if n <= 0 {
		return 0, nil
	}
	if room := c.StreamRoom(); n > room {
		n = room
	}
	if n == 0 {
		return 0, nil
	}
	c.streamTotal += n
	if c.kicked {
		c.appPump()
		c.trySend()
	}
	return n, nil
}

// CloseStream half-closes the write side (FIN): no more bytes are
// accepted, everything already written keeps (re)transmitting until
// acknowledged. Returns the final stream length. Idempotent.
func (c *Conn) CloseStream() int64 {
	if c.streamEnd < 0 {
		c.streamEnd = c.streamTotal
		c.maybeDrained()
	}
	return c.streamEnd
}

// maybeDrained fires the drained hook (once) when a closed stream has been
// fully acknowledged.
func (c *Conn) maybeDrained() {
	if c.streamEnd < 0 || c.drainedFired || c.sndUna < c.streamEnd {
		return
	}
	c.drainedFired = true
	if c.events != nil {
		c.events.StreamDrained()
	}
}

// streamTailReady reports that the copied tail is everything the app has
// written so far — push it as a short segment instead of waiting for a
// full MSS (TCP_NODELAY-style request tails).
func (c *Conn) streamTailReady() bool {
	return !c.appBusy && c.appCopied >= c.streamTotal
}

// streamProgress runs after an ACK advances sndUna: it completes a pending
// drain and announces reopened send-buffer room.
func (c *Conn) streamProgress() {
	c.maybeDrained()
	if c.done || c.drainedFired {
		return
	}
	if c.events != nil && c.StreamRoom() > 0 {
		c.events.StreamWritable()
	}
}

// StartDelay returns the connection's configured start offset, so stream
// drivers can align their first write with the staggered kick.
func (c *Conn) StartDelay() time.Duration { return c.cfg.StartDelay }

// watchdogInterval is how often the stall watchdog re-checks progress.
const watchdogInterval = 500 * time.Millisecond

// armWatchdog starts the periodic stall check.
func (c *Conn) armWatchdog() {
	if c.done {
		return
	}
	if !c.watchdog.Reschedule(watchdogInterval) {
		c.watchdog = c.eng.ScheduleP(watchdogInterval, connWatchdog, c)
	}
}

// watchdogCheck declares the connection dead if it has outstanding work but
// has made no delivery progress for stallTimeout — the recovery machinery
// is wedged or the link never came back.
func (c *Conn) watchdogCheck() {
	if c.done {
		return
	}
	idle := c.eng.Now() - c.lastProgress
	hasWork := c.inflight > 0 || c.board.firstLost() != nil || c.appBacklogSegs() > 0
	if hasWork && idle > stallTimeout {
		c.fail(fmt.Errorf("tcp: conn %d stalled: no delivery progress for %v (inflight=%d cwnd=%d state=%v rto-backoff=%d)",
			c.id, idle, c.inflight, c.cwnd, c.state, c.rtoBackoff))
		return
	}
	c.armWatchdog()
}

// --- cc.Conn interface -----------------------------------------------------

// Now implements cc.Conn.
func (c *Conn) Now() time.Duration { return c.eng.Now() }

// MSS implements cc.Conn.
func (c *Conn) MSS() units.DataSize { return seg.MSS }

// Cwnd implements cc.Conn.
func (c *Conn) Cwnd() int { return c.cwnd }

// SetCwnd implements cc.Conn, clamping to [1, MaxCwnd].
func (c *Conn) SetCwnd(pkts int) {
	if pkts < 1 {
		pkts = 1
	}
	if max := c.cfg.maxCwnd(); pkts > max {
		pkts = max
	}
	c.cwnd = pkts
}

// Ssthresh implements cc.Conn.
func (c *Conn) Ssthresh() int { return c.ssthresh }

// SetSsthresh implements cc.Conn.
func (c *Conn) SetSsthresh(pkts int) {
	if pkts < 2 {
		pkts = 2
	}
	c.ssthresh = pkts
}

// PacingRate implements cc.Conn.
func (c *Conn) PacingRate() units.Bandwidth { return c.pacingRate }

// SetPacingRate implements cc.Conn.
func (c *Conn) SetPacingRate(r units.Bandwidth) {
	if r < 0 {
		r = 0
	}
	c.pacingRate = r
}

// PacketsInFlight implements cc.Conn.
func (c *Conn) PacketsInFlight() int { return c.inflight }

// Delivered implements cc.Conn.
func (c *Conn) Delivered() int64 { return c.delivered }

// SRTT implements cc.Conn.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// MinRTT returns the windowed minimum RTT estimate.
func (c *Conn) MinRTT() time.Duration { return time.Duration(c.minRTT.Get()) }

// State implements cc.Conn.
func (c *Conn) State() cc.State { return c.state }

// IsCwndLimited implements cc.Conn.
func (c *Conn) IsCwndLimited() bool { return c.cwndLimited }

// Rand implements cc.Conn.
func (c *Conn) Rand() *rand.Rand { return c.eng.Rand() }

// --- send engine ------------------------------------------------------------

// appBacklogSegs returns how many new segments the application has ready.
// With an app core attached, only bytes already copied into the socket
// buffer are sendable; otherwise the source is treated as instantaneous.
func (c *Conn) appBacklogSegs() int {
	if c.appCPU != nil {
		segs := int(c.buffered / seg.MSS)
		if segs == 0 && c.buffered > 0 && c.streamTailReady() {
			segs = 1 // short tail segment
		}
		return segs
	}
	rem := c.streamTotal - c.sndNxt
	if rem <= 0 {
		return 0
	}
	segs := rem / int64(seg.MSS)
	if rem%int64(seg.MSS) != 0 {
		segs++ // push the partial tail immediately
	}
	return int(segs)
}

// trySend attempts to transmit one skb: retransmissions first, then new
// data, up to the TSO-autosized batch, the cwnd, and the pacing gate.
func (c *Conn) trySend() {
	if c.xmitBusy || c.done {
		return
	}
	now := c.eng.Now()
	if ok, wait := c.pacer.CanSendAt(now); !ok {
		c.armPacingTimer(wait)
		return
	}
	// TSQ-style backpressure: if the local qdisc is deep, defer rather
	// than overrun it.
	if c.path.Hop(0).QueueLen() > devnicHighWatermark {
		c.later(250*time.Microsecond, connTrySendLater)
		return
	}
	c.cwndRestartAfterIdle(now)
	avail := c.cwnd - c.inflight
	if avail <= 0 {
		c.cwndLimited = true
		return
	}
	rate := c.pacer.Rate(c.pacingRate)
	target := c.pacer.SKBSegs(rate, seg.MSS)
	c.cwndLimited = target >= avail
	if target > avail {
		target = avail
	}
	// PRR-style conservatism: during recovery, meter (re)transmissions
	// out a couple of segments at a time instead of re-bursting whole
	// windows into a queue that just dropped them.
	if c.state != cc.StateOpen && target > 2 {
		target = 2
	}
	retx := c.board.lostPendingInto(c.xmitRetx[:0], target)
	c.xmitRetx = retx
	newSegs := 0
	if rem := target - len(retx); rem > 0 {
		backlog := c.appBacklogSegs()
		if backlog < rem {
			rem = backlog
			c.cwndLimited = false
		}
		newSegs = rem
	}
	if len(retx)+newSegs == 0 {
		if c.appBacklogSegs() == 0 && c.inflight > 0 {
			c.markAppLimited()
		}
		return
	}
	c.xmitBusy = true
	// The pacing clock runs from the moment the socket is released to
	// transmit (tcp_update_skb_after_send arms the hrtimer at transmit),
	// so the segmentation/driver work below overlaps the idle gap rather
	// than extending it.
	paceFrom := now
	costs := c.cpu.Costs()
	if len(retx) > 0 {
		c.cpu.Submit(cpumodel.OpRetransmit, float64(len(retx))*costs.Retransmit, nil)
	}
	c.cpu.Submit(cpumodel.OpSKBXmit, costs.SKBXmit, nil)
	total := len(retx) + newSegs
	// Park the batch on the connection; connEmit picks it up at CPU
	// completion (xmitBusy guarantees a single outstanding job).
	c.xmitPaceFrom = paceFrom
	c.xmitNew = newSegs
	c.job(c.cpu, cpumodel.OpSegXmit, float64(total)*costs.SegXmit, connEmit)
}

// trySendLater is a send attempt that was deferred — a TSQ retry poll, or the
// pacing timer's expiry work coming off the CPU.
func (c *Conn) trySendLater() {
	if c.land() {
		c.trySend()
	}
}

// cwndRestartAfterIdle is tcp_cwnd_restart (RFC 2861): a window validated
// long ago says nothing about the path now, so after an idle period the
// cwnd decays by half per idle RTO, floored at the restart window.
func (c *Conn) cwndRestartAfterIdle(now time.Duration) {
	if c.inflight != 0 || c.lastSendAt <= 0 {
		return
	}
	rto := c.rto()
	idle := now - c.lastSendAt
	if idle <= rto {
		return
	}
	restart := initialCwnd
	if c.cwnd < restart {
		restart = c.cwnd
	}
	cwnd := c.cwnd
	for ; idle > rto && cwnd > restart; idle -= rto {
		cwnd >>= 1
	}
	if cwnd < restart {
		cwnd = restart
	}
	if cwnd != c.cwnd {
		if c.bus != nil {
			c.bus.Emit(telemetry.Event{
				Kind: telemetry.KindIdleRestart, Conn: c.id,
				Value: float64(c.cwnd), V2: float64(cwnd),
			})
		}
		c.cwnd = cwnd
	}
}

// markAppLimited records that the sender ran out of application data, per
// tcp_rate_check_app_limited.
func (c *Conn) markAppLimited() {
	v := c.delivered + int64(c.inflight)
	if v < 1 {
		v = 1
	}
	c.appLimited = v
}

// retire returns an entry the cumulative ACK dropped to the entry pool. While
// a transmit job is parked its retransmission batch may still point at the
// entry, and emit reads the entry's flags to tell whether it is still worth
// sending; on the shared pool another connection could take the entry and
// mark it lost in the meantime, and emit would send that connection's
// sequence number under this one's flow id. Such an entry waits on the
// connection until the job has run.
func (c *Conn) retire(p *pktInfo) {
	if !c.xmitBusy {
		c.infos.put(p)
		return
	}
	p.free = c.retired
	c.retired = p
}

// flushRetired hands the entries retire held back over to the entry pool.
func (c *Conn) flushRetired() {
	for p := c.retired; p != nil; {
		next := p.free
		c.infos.put(p)
		p = next
	}
	c.retired = nil
}

// snapshot stamps a packet with the rate-sample state at transmission.
func (c *Conn) snapshot(p *pktInfo) {
	p.snapDelivered = c.delivered
	p.snapDeliveredTime = c.deliveredTime
	p.snapFirstTx = c.firstTx
	p.snapAppLimited = c.appLimited > 0
}

// emit runs at CPU completion of the transmit job: it stamps, snapshots and
// injects the segments, then advances the pacing schedule (whose clock runs
// from paceFrom, the transmit-release time).
func (c *Conn) emit(paceFrom time.Duration, retx []*pktInfo, newSegs int) {
	c.xmitBusy = false
	// What retx still points at stays as the ACK path left it — acked, so
	// skipped below — until the first get, which comes after the retx loop.
	c.flushRetired()
	if !c.land() {
		return
	}
	now := c.eng.Now()
	if c.inflight == 0 {
		// packets_out == 0: reset the rate-sample send window
		// (tcp_rate_skb_sent). This is what makes isolated high-stride
		// bursts measure burst-local delivery rates.
		c.firstTx = now
		c.deliveredTime = now
	}
	var bytes units.DataSize
	sent := 0
	for _, p := range retx {
		if p.acked || p.sacked || !p.lost || p.inFlite {
			continue
		}
		p.lost = false
		p.retx = true
		p.inFlite = true
		p.sentAt = now
		c.snapshot(p)
		c.inflight++
		c.retransTotal++
		if c.agg != nil {
			c.agg.retransmits++
		}
		bytes += p.len
		sent++
		c.path.Send(c.mkPacket(p))
	}
	for i := 0; i < newSegs; i++ {
		l := seg.MSS
		if c.appCPU != nil {
			if c.buffered < l {
				if c.buffered == 0 || !c.streamTailReady() {
					break
				}
				l = c.buffered // short tail segment
			}
			c.buffered -= l
		}
		if rem := c.streamTotal - c.sndNxt; rem <= 0 {
			break
		} else if rem < int64(l) {
			l = units.DataSize(rem)
		}
		p := c.infos.get()
		p.seq, p.len, p.sentAt, p.inFlite = c.sndNxt, l, now, true
		c.snapshot(p)
		c.board.add(p, c.infos)
		c.sndNxt += int64(l)
		c.segsSent++
		c.inflight++
		bytes += l
		sent++
		c.path.Send(c.mkPacket(p))
	}
	if sent == 0 {
		return
	}
	c.lastSendAt = now
	c.pacer.OnSKBSent(paceFrom, bytes, c.pacer.Rate(c.pacingRate))
	if occ := units.DataSize(c.inflight) * seg.MSS; occ > c.maxBufOcc {
		c.maxBufOcc = occ
	}
	c.armRTO()
	if c.pacer.Enabled() {
		// Under pacing every subsequent send goes through the timer
		// path (tcp_internal_pacing arms the hrtimer unconditionally),
		// so the expiry/tasklet cost is paid per data-send even when
		// the gate time has already passed.
		_, wait := c.pacer.CanSendAt(now)
		c.armPacingTimer(wait)
		return
	}
	c.trySend()
}

func (c *Conn) mkPacket(p *pktInfo) *seg.Packet {
	pkt := c.pool.GetPacket()
	pkt.Flow = c.id
	pkt.Seq = p.seq
	pkt.Len = p.len
	pkt.SentAt = p.sentAt
	pkt.Retx = p.retx
	return pkt
}

// armPacingTimer schedules the pacing-gate reopening. The timer's expiry is
// charged to the CPU (OpPacingTimer) before the send attempt runs — the
// per-event overhead at the heart of the paper. With hardware offload
// (§7.1.4) the NIC enforces the gap and the CPU pays nothing per event.
func (c *Conn) armPacingTimer(wait time.Duration) {
	if c.pacingTimer.Pending() {
		return
	}
	c.pacer.TimerArmed()
	if !c.pacingTimer.Reschedule(wait) {
		c.pacingTimer = c.eng.ScheduleP(wait, connPacingExpired, c)
	}
}

// pacingExpired is the pacing timer's callback.
func (c *Conn) pacingExpired() {
	if c.done {
		return
	}
	if c.pacer.Config().HardwareOffload {
		c.trySend()
		return
	}
	now := c.eng.Now()
	done := c.job(c.cpu, cpumodel.OpPacingTimer, c.cpu.Costs().PacingTimer, connTrySendLater)
	if c.bus != nil || c.met != nil {
		// Timer slippage: the gate reopened at now, but the expiry
		// work queues behind whatever the CPU is already doing, so
		// the send actually runs at done. The delta is the paper's
		// CPU-contention signal.
		slip := float64(done-now) / 1e3 // µs
		if c.bus != nil {
			c.bus.Emit(telemetry.Event{Kind: telemetry.KindPacingTimer, Conn: c.id, Value: slip})
		}
		if c.met != nil {
			c.met.TimerSlip.Observe(slip)
		}
	}
}

// rto returns the current retransmission timeout with backoff. The stall
// watchdog bounds the shift: every ACK and send re-arms the timer, so a
// timeout longer than stallTimeout never fires (the watchdog fails the
// connection first) and rtoBackoff stays below 9.
func (c *Conn) rto() time.Duration {
	rto := c.srtt + 4*c.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	rto <<= c.rtoBackoff
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

func (c *Conn) armRTO() {
	if !c.rtoTimer.Reschedule(c.rto()) {
		c.rtoTimer = c.eng.ScheduleP(c.rto(), connRTOExpired, c)
	}
}

func (c *Conn) onRTOTimer() {
	if c.done || c.inflight == 0 && c.board.firstLost() == nil {
		return
	}
	c.job(c.cpu, cpumodel.OpRTO, c.cpu.Costs().RTO, connEnterLoss)
}

// enterLoss is tcp_enter_loss: everything unsacked is marked lost, the
// congestion module is told, and the head is retransmitted. Consecutive
// timeouts back the RTO off exponentially (rto() shifts by rtoBackoff).
// There is no retry limit: under total loss the stall watchdog declares
// the connection dead, at about the seventh timeout.
func (c *Conn) enterLoss() {
	if !c.land() {
		return
	}
	c.rtoBackoff++
	// F-RTO: snapshot cwnd/ssthresh at the first timeout of a backoff run
	// so a later ACK of an original (non-retransmitted) packet can prove
	// the timeout spurious and undo the collapse.
	if !c.undoValid {
		c.undoValid = true
		c.undoCwnd = c.cwnd
		c.undoSsthresh = c.ssthresh
		c.undoAt = c.eng.Now()
	}
	newly := c.board.markAllLost(c.infos)
	for _, p := range newly {
		if p.inFlite {
			p.inFlite = false
			c.inflight--
		}
		c.lostTotal++
	}
	if c.bus != nil {
		c.bus.Emit(telemetry.Event{
			Kind: telemetry.KindRTO, Conn: c.id,
			Value: float64(c.rtoBackoff), V2: float64(len(newly)),
		})
	}
	c.setState(cc.StateLoss)
	c.recoveryPoint = c.sndNxt
	// The module snapshots ssthresh from the pre-collapse cwnd, then the
	// transport collapses the window (tcp_enter_loss ordering).
	c.ccMod.OnEvent(c, cc.EventEnterLoss)
	c.cwnd = 1
	c.armRTO()
	c.trySend()
}

// Stats exposes the sender-side counters the experiments report.
type ConnStats struct {
	Retransmits  int64
	Lost         int64
	MinRTT       time.Duration
	MaxBufferOcc units.DataSize
	PacerStats   pacing.Stats
	SpuriousRTOs int64
	Failed       error
}

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		Retransmits:  c.retransTotal,
		Lost:         c.lostTotal,
		MinRTT:       c.MinRTT(),
		MaxBufferOcc: c.maxBufOcc,
		PacerStats:   c.pacer.Stats(),
		SpuriousRTOs: c.spuriousRTOs,
		Failed:       c.failedErr,
	}
}

// Audit is a consistency snapshot of the connection's bookkeeping for the
// invariant checker: the counter view (Inflight, Delivered, SegsSent) next
// to the ground truth recomputed by walking the scoreboard.
type Audit struct {
	ID     int
	SndUna int64
	SndNxt int64

	// Counter view.
	Inflight  int   // c.inflight counter
	SegsSent  int64 // new-data segments ever created
	Delivered int64 // packets cumulatively acked or SACKed

	// Scoreboard walk (ground truth).
	BoardInflight    int
	BoardLostPending int
	LiveBytes        int64 // sum of live entry lengths

	Cwnd       int
	Ssthresh   int
	MaxCwnd    int
	PacingRate units.Bandwidth

	// HeldAcks is the number of pooled ACKs parked behind the CPU model
	// (delivered by the network, not yet processed) — part of the pool
	// conservation check.
	HeldAcks int
}

// Audit walks the scoreboard and returns the connection's bookkeeping
// snapshot for invariant checking.
func (c *Conn) Audit() Audit {
	inflight, lostPending, liveBytes := c.board.audit()
	return Audit{
		ID:               c.id,
		SndUna:           c.sndUna,
		SndNxt:           c.sndNxt,
		Inflight:         c.inflight,
		SegsSent:         c.segsSent,
		Delivered:        c.delivered,
		BoardInflight:    inflight,
		BoardLostPending: lostPending,
		LiveBytes:        liveBytes,
		Cwnd:             c.cwnd,
		Ssthresh:         c.ssthresh,
		MaxCwnd:          c.cfg.maxCwnd(),
		PacingRate:       c.pacingRate,
		HeldAcks:         c.pendingAcks.Len(),
	}
}

// ReclaimAcks releases ACKs still parked behind the CPU model back to the
// pool. The run harness calls it after the engine stops — the processAck
// events that would have consumed them never fire past the run horizon.
func (c *Conn) ReclaimAcks() {
	if c.agg != nil {
		c.agg.heldAcks -= c.pendingAcks.Len()
	}
	c.pendingAcks.Drain(c.pool.PutAck)
}

// ForceQuiesce drops a stopped connection's pending calls after the engine
// has halted: they never land past the run horizon, so what they held — the
// ACKs behind the CPU model, the entries retired under a parked batch —
// goes back to its pool and the count drops to zero. Only the run-end
// reclaim may call this; mid-run it would recycle a connection with live
// events pointed at it.
func (c *Conn) ForceQuiesce() {
	c.ReclaimAcks()
	c.flushRetired()
	c.pending = 0
}

// Quiescent reports whether a stopped connection has fully wound down: every
// call it issued through later or job has landed. Only a quiescent
// connection may be recycled — all that is left of it on the engine is
// stopped-timer residue, which never fires.
func (c *Conn) Quiescent() bool { return c.done && c.pending == 0 }

// maybeQuiet hands a stopped connection back to its pool when the last
// pending call lands while its slot is waiting in the dying set (or at Put,
// when nothing was pending).
func (c *Conn) maybeQuiet() {
	if pc := c.home; pc != nil && pc.dyingIdx >= 0 && c.Quiescent() {
		pc.pool.recycle(pc)
	}
}

// Reset re-initializes a stopped, quiescent connection for reuse as a new
// flow with a fresh id — the churn fast path. What carries over is the
// wiring (engine, CPUs, path, config, pools, sinks), the stopped timer
// handles and the buffers' capacity; every other field is zeroed and then
// rebuilt by open, the same initialiser a new connection runs, so a recycled
// connection starts exactly as a fresh one does. The congestion module
// carries over too, as the kernel keeps icsk_ca_priv inline in the socket:
// open re-runs its Init, which restores the state its factory built. Callers
// must re-register the new id with the demux and the path's ACK return
// (Receiver.Reset does the latter) — ids are never reused, so a late event
// aimed at the old incarnation cannot alias the new one.
func (c *Conn) Reset(id int) {
	if !c.Quiescent() {
		panic(fmt.Sprintf("tcp: Reset of non-quiescent conn %d (done=%v pending=%d)", c.id, c.done, c.pending))
	}
	// Surviving scoreboard entries (lost/sacked, never cum-acked) go back
	// to the entry pool.
	c.board.reset(c.infos)
	*c = Conn{
		eng: c.eng, cpu: c.cpu, appCPU: c.appCPU, path: c.path, cfg: c.cfg,
		pool: c.pool, infos: c.infos, agg: c.agg, ftab: c.ftab,
		bus: c.bus, met: c.met, home: c.home,
		pacer:    c.pacer, // Pacer.Reset keeps only the instruments
		rtoTimer: c.rtoTimer, pacingTimer: c.pacingTimer, watchdog: c.watchdog,
		board: c.board, xmitRetx: c.xmitRetx[:0], ccMod: c.ccMod,
	}
	c.open(id, nil)
}

// CorruptInflightForTest deliberately skews the inflight counter so tests
// can prove the invariant checker catches real accounting bugs. Test-only.
func (c *Conn) CorruptInflightForTest(delta int) { c.inflight += delta }

// String identifies the connection for debug output.
func (c *Conn) String() string {
	return fmt.Sprintf("conn%d[%s cwnd=%d inflight=%d]", c.id, c.ccMod.Name(), c.cwnd, c.inflight)
}
