package flows

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mobbr/internal/check"
	"mobbr/internal/cpumodel"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/slab"
	"mobbr/internal/stats"
	"mobbr/internal/tcp"
	"mobbr/internal/units"
)

// flow is one live flow's bookkeeping. Records come from the session's slab
// and are recycled through its freelist on release. The record is also its
// connection's stream-event sink, which costs no closure per flow.
type flow struct {
	s  *Session
	pc *tcp.PooledConn

	id      int
	size    int64
	written int64
	born    time.Duration
	idx     int   // position in the session's live set
	free    *flow // next record on the session's freelist
}

// flowChunk is about how many flow records one slab chunk holds: 255 of
// them fill the 16 KiB size class.
const flowChunk = 256

// StreamWritable implements tcp.StreamEvents: ACKs reopened buffer room.
func (f *flow) StreamWritable() { f.s.pump(f) }

// StreamDrained implements tcp.StreamEvents: the FIN is acknowledged.
func (f *flow) StreamDrained() { f.s.complete(f) }

// StreamFailed implements tcp.StreamEvents: the transport gave up.
func (f *flow) StreamFailed(error) { f.s.fail(f) }

// Session is one assembled churn run. It mirrors iperf.Session's harness
// shape (Start / engine run / Finish) but owns a dynamic population:
// arrivals draw a size and a pooled connection, completions release both.
type Session struct {
	eng  *sim.Engine
	cpu  *cpumodel.CPU
	path *netem.Path
	icfg iperf.Config
	fcfg Config

	demux *tcp.Demux
	pool  *tcp.ConnPool
	agg   *tcp.AggStats
	ftab  *cpumodel.FlowTable

	nextID int
	live   []*flow
	// Flow records: released ones first, then new ones from the slab.
	freeFlows *flow
	newFlows  slab.Slab[flow]

	// onRetire fires with the flow id on every release (completion or
	// failure) — the invariant checker prunes its per-flow history here.
	onRetire func(id int)

	started, completed, failed, rejected int64
	peakLive                             int
	liveSamples                          stats.Online
	fctMs                                []float64

	warmupBytes units.DataSize

	intervals      []iperf.Interval
	lastIvalBytes  units.DataSize
	lastIvalRetx   int64
	lastIvalRTTSum time.Duration
	lastIvalRTTN   int64

	// Cached event closures: the periodic paths schedule without
	// allocating per tick.
	arrivalFn  func()
	sampleFn   func()
	intervalFn func()

	audBuf []check.Auditable
}

// New assembles a churn session. The iperf config supplies the shared
// harness knobs (duration, warmup, sampling, intervals, transport config,
// congestion-control factory, pool, telemetry); the flows config shapes
// the arrival and size processes. Like the apps layer, flows reuses
// iperf's Report so the experiment plumbing upstream is untouched.
//
// The per-byte sendmsg copy (iperf's AppCPU) is deliberately not charged:
// the churn workload studies the per-flow costs — demux, ACK processing,
// timer state — and at 100k flows the byte-granular app-core model would
// dominate runtime without adding information.
func New(eng *sim.Engine, cpu *cpumodel.CPU, path *netem.Path, icfg iperf.Config, fcfg Config) (*Session, error) {
	if err := fcfg.Validate(); err != nil {
		return nil, err
	}
	fcfg = fcfg.WithDefaults()
	if icfg.CC == nil {
		return nil, fmt.Errorf("flows: iperf.Config.CC factory is required")
	}
	s := &Session{
		eng: eng, cpu: cpu, path: path, icfg: icfg, fcfg: fcfg,
		demux: tcp.NewDemux(),
		agg:   &tcp.AggStats{},
		ftab:  cpumodel.NewFlowTable(fcfg.FlowTableSlots, fcfg.OffloadThreshold, cpu.Costs()),
	}
	// Cache/TLB pressure scales with the hot-socket population, same
	// model as iperf's parallel connections.
	cpu.SetPressure(1 + 0.05*math.Log(float64(fcfg.MaxLive)))
	s.demux.SetPool(icfg.Pool)
	path.SetPool(icfg.Pool)
	path.SetReceiver(s.demux.Handle)
	s.pool = tcp.NewConnPool(eng, cpu, nil, path, icfg.TCP, icfg.Pool, s.agg, s.ftab)
	s.arrivalFn = s.arrive
	s.sampleFn = s.sample
	s.intervalFn = s.recordInterval
	return s, nil
}

// SetOnRetire installs a hook fired with each flow id as it is released.
func (s *Session) SetOnRetire(fn func(id int)) { s.onRetire = fn }

// Aggregates exposes the run-wide O(1) counter sink.
func (s *Session) Aggregates() *tcp.AggStats { return s.agg }

// Pool exposes the conn pool (tests audit its balance).
func (s *Session) Pool() *tcp.ConnPool { return s.pool }

// Auditables returns the live connections as the invariant checker's
// dynamic audit view. The backing buffer is reused across calls.
func (s *Session) Auditables() []check.Auditable {
	s.audBuf = s.audBuf[:0]
	for _, f := range s.live {
		s.audBuf = append(s.audBuf, f.pc.Conn)
	}
	return s.audBuf
}

// drawSize samples one flow size: a lognormal mouse, or (with probability
// ElephantShare) a bounded-Pareto elephant.
func (s *Session) drawSize() int64 {
	r := s.eng.Rand()
	var size float64
	if r.Float64() < s.fcfg.ElephantShare {
		// Bounded Pareto: min·(1-U)^(-1/α), U ∈ [0,1) keeps the base
		// in (0,1] so the draw is finite.
		size = float64(s.fcfg.ElephantMinBytes) *
			math.Pow(1-r.Float64(), -1/s.fcfg.ParetoAlpha)
	} else {
		size = float64(s.fcfg.MiceBytes) * math.Exp(s.fcfg.MiceSigma*r.NormFloat64())
	}
	if size > float64(s.fcfg.MaxFlowBytes) {
		size = float64(s.fcfg.MaxFlowBytes)
	}
	if size < 1 {
		size = 1
	}
	return int64(size)
}

// allocFlow returns a flow record to overwrite: a released one, else a new
// one. Churn always needs more than a handful, so the slab hands them out in
// whole chunks from the first.
func (s *Session) allocFlow() *flow {
	if f := s.freeFlows; f != nil {
		s.freeFlows = f.free
		return f
	}
	return s.newFlows.NextIn(flowChunk, flowChunk)
}

// startFlow admits one flow: fresh id, drawn size, pooled conn in stream
// mode, registered with the demux, started, and primed with as many bytes
// as the send buffer takes.
func (s *Session) startFlow() {
	id := s.nextID
	s.nextID++
	size := s.drawSize()
	pc := s.pool.Get(id, s.icfg.CC)
	f := s.allocFlow()
	*f = flow{s: s, pc: pc, id: id, size: size, born: s.eng.Now(), idx: len(s.live)}
	s.live = append(s.live, f)
	s.started++
	if len(s.live) > s.peakLive {
		s.peakLive = len(s.live)
	}
	c := pc.Conn
	c.SetStream()
	c.SetStreamEvents(f)
	s.demux.Add(pc.Rx)
	c.Start()
	s.pump(f)
}

// pump pushes the flow's remaining bytes into the send buffer and
// half-closes (FIN) once everything is written. Re-entered from the
// writable callback as ACKs reopen room.
func (s *Session) pump(f *flow) {
	c := f.pc.Conn
	for f.written < f.size {
		n, err := c.StreamWrite(f.size - f.written)
		if err != nil {
			return // the failed callback owns the release
		}
		if n == 0 {
			return // buffer full; the writable callback re-pumps
		}
		f.written += n
	}
	c.CloseStream()
}

// complete records a drained flow's completion time and releases it.
func (s *Session) complete(f *flow) {
	s.completed++
	s.fctMs = append(s.fctMs, float64(s.eng.Now()-f.born)/1e6)
	s.release(f)
}

// fail releases a flow the transport declared dead.
func (s *Session) fail(f *flow) {
	s.failed++
	s.release(f)
}

// release is the single churn exit path: the flow id is unregistered
// everywhere late traffic could still reach it — demux (data), path
// tombstone (ACKs in return flight), flow table (fast-path slot) — then
// the conn goes back to the pool and the record to the freelist (a stopped
// connection fires no stream event, so the record is free at once). The live
// set uses O(1) swap-remove; order is irrelevant, ids are never reused.
func (s *Session) release(f *flow) {
	s.demux.Remove(f.id)
	s.path.RetireFlow(f.id)
	s.ftab.Remove(f.id)
	if s.onRetire != nil {
		s.onRetire(f.id)
	}
	s.pool.Put(f.pc)
	last := len(s.live) - 1
	s.live[f.idx] = s.live[last]
	s.live[f.idx].idx = f.idx
	s.live = s.live[:last]
	f.pc = nil
	f.free, s.freeFlows = s.freeFlows, f
}

// arrive admits or rejects one Poisson arrival and schedules the next.
func (s *Session) arrive() {
	if len(s.live) >= s.fcfg.MaxLive {
		s.rejected++
	} else {
		s.startFlow()
	}
	s.scheduleArrival()
}

func (s *Session) scheduleArrival() {
	wait := time.Duration(s.eng.Rand().ExpFloat64() / s.fcfg.ArrivalRate * float64(time.Second))
	s.eng.Schedule(wait, s.arrivalFn)
}

// sample is the periodic metric sample. Unlike iperf's per-connection
// walk, every quantity here is O(1) in the live-flow count — that is the
// point of the aggregate counters. The measurement body is split out
// (sampleOnce) so benchmarks can time one sample without the scheduling.
func (s *Session) sample() {
	s.sampleOnce()
	s.eng.Schedule(iperf.SampleEvery, s.sampleFn)
}

func (s *Session) sampleOnce() {
	s.liveSamples.Add(float64(len(s.live)))
}

// recordInterval closes one reporting interval from counter deltas —
// including the RTT column, which iperf snapshots per conn but flows
// derives from the aggregate per-ACK sum (O(1) at any population).
func (s *Session) recordInterval() {
	s.recordIntervalOnce()
	s.eng.Schedule(s.icfg.Interval, s.intervalFn)
}

func (s *Session) recordIntervalOnce() {
	now := s.eng.Now()
	bytes := s.agg.GoodBytes()
	retx := s.agg.Retransmits()
	rttSum, rttN := s.agg.RTTSum(), s.agg.RTTSamples()
	iv := iperf.Interval{
		Start:       now - s.icfg.Interval,
		End:         now,
		Goodput:     units.BandwidthFromBytes(bytes-s.lastIvalBytes, s.icfg.Interval),
		Retransmits: retx - s.lastIvalRetx,
	}
	if dn := rttN - s.lastIvalRTTN; dn > 0 {
		iv.AvgRTT = (rttSum - s.lastIvalRTTSum) / time.Duration(dn)
	}
	s.intervals = append(s.intervals, iv)
	s.lastIvalBytes = bytes
	s.lastIvalRetx = retx
	s.lastIvalRTTSum = rttSum
	s.lastIvalRTTN = rttN
}

// Start seeds the initial population, arms the arrival process and the
// periodic samplers.
func (s *Session) Start() {
	n := s.fcfg.InitialFlows
	if n > s.fcfg.MaxLive {
		n = s.fcfg.MaxLive
	}
	for i := 0; i < n; i++ {
		s.startFlow()
	}
	s.scheduleArrival()
	s.eng.Schedule(iperf.SampleEvery, s.sampleFn)
	if s.icfg.Interval > 0 {
		s.eng.Schedule(s.icfg.Interval, s.intervalFn)
	}
	if s.icfg.Warmup > 0 {
		s.eng.Schedule(s.icfg.Warmup, func() {
			s.warmupBytes = s.agg.GoodBytes()
		})
	}
}

// Run executes the whole experiment on the engine.
func (s *Session) Run() (*iperf.Report, *Stats) {
	s.Start()
	s.eng.Run(s.icfg.Duration)
	return s.Finish()
}

// Finish cancels the flows still live at the horizon, reclaims everything
// the network and the dying connections hold, and collects. After Finish
// the conn pool and the packet pool both balance to zero.
func (s *Session) Finish() (*iperf.Report, *Stats) {
	canceled := int64(len(s.live))
	for _, f := range s.live {
		s.demux.Remove(f.id)
		s.pool.Put(f.pc) // stops the conn, parks it dying
		f.pc = nil
	}
	s.live = s.live[:0]
	s.path.Reclaim()
	s.pool.Reclaim()
	return s.collect(canceled)
}

func (s *Session) collect(canceled int64) (*iperf.Report, *Stats) {
	dur := s.icfg.Duration - s.icfg.Warmup
	if dur <= 0 {
		dur = s.icfg.Duration
	}
	r := &iperf.Report{
		Goodput:      units.BandwidthFromBytes(s.agg.GoodBytes()-s.warmupBytes, dur),
		Retransmits:  s.agg.Retransmits(),
		AvgRTT:       s.agg.AvgRTT(),
		CPUUtil:      s.cpu.TotalUtilization(),
		CPUBreakdown: s.cpu.Breakdown(),
		PathDrops:    s.path.TotalDrops(),
		Intervals:    s.intervals,
	}
	if s.icfg.Metrics != nil {
		r.Metrics = s.icfg.Metrics.Snapshot()
	}
	if s.icfg.Pool != nil {
		r.Pool = s.icfg.Pool.Stats()
	}
	sort.Float64s(s.fctMs)
	st := &Stats{
		Started:        s.started,
		Completed:      s.completed,
		Failed:         s.failed,
		Rejected:       s.rejected,
		Canceled:       canceled,
		PeakLive:       s.peakLive,
		AvgLive:        s.liveSamples.Mean(),
		FCTms:          s.fctMs,
		TombstonedAcks: s.path.TombstonedAcks(),
		Orphans:        s.demux.Orphans(),
		Pool:           s.pool.Stats(),
		FlowTable:      s.ftab.Stats(),
	}
	return r, st
}
