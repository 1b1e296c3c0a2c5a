// Package iperf drives the paper's workload: an iPerf3-style bulk upload
// from the phone over N parallel TCP connections, and collects the metrics
// the paper reports — aggregate goodput, per-connection goodput, RTT
// (sampled like periodic `ss` polling), retransmission counts, pacing-period
// statistics (for Table 2), buffer occupancy and CPU utilization.
package iperf

import (
	"fmt"
	"io"
	"math"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/stats"
	"mobbr/internal/tcp"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

const (
	// SampleEvery is the metric-sampling period.
	SampleEvery = 100 * time.Millisecond
	// staggerStarts spreads connection starts over this window to avoid
	// artificial lockstep.
	staggerStarts = 10 * time.Millisecond
)

// Config parameterizes one iPerf run.
type Config struct {
	// Conns is the number of parallel connections (iperf3 -P).
	Conns int
	// Duration is how long the run transmits (iperf3 -t).
	Duration time.Duration
	// Warmup excludes the initial ramp from goodput accounting; 0
	// measures the whole run like iperf3 does.
	Warmup time.Duration
	// TCP is the per-connection transport configuration.
	TCP tcp.Config
	// CC builds each connection's congestion controller.
	CC cc.Factory
	// CCMix, when non-empty, overrides CC: connection i uses
	// CCMix[i%len(CCMix)], enabling mixed-protocol coexistence
	// experiments (e.g. BBR vs Cubic sharing a bottleneck).
	CCMix []cc.Factory
	// Stream builds every connection in stream-source mode: no bulk
	// source runs; an application layer (internal/apps) pushes bytes with
	// StreamWrite from its stream-event callbacks instead. The harness —
	// staggered starts, sampling, intervals, warmup, reclaim, Collect — is
	// shared unchanged, making iperf's bulk upload just one workload behind
	// it.
	Stream bool
	// AppCPU, when set, is the application core charged the per-byte
	// sendmsg copy (see device.NewCPUs). nil skips the copy cost.
	AppCPU *cpumodel.CPU
	// Interval, when nonzero, records an iperf3-style per-interval
	// report (aggregate goodput, RTT, retransmits) every Interval.
	Interval time.Duration
	// Bus, when set, receives every connection's structured telemetry
	// events (state transitions, RTOs, pacing-timer slippage, …).
	Bus *telemetry.Bus
	// Metrics, when set, collects per-connection histograms (ACK batch
	// size, send quantum, inter-send gap, delivery rate, timer slippage);
	// Collect snapshots it into Report.Metrics.
	Metrics *telemetry.Registry
	// Pool, when set, is the run-private packet/ACK recycler threaded
	// through the senders, the path and the demux; Run reclaims everything
	// still held at run end and Collect reports the pool census. In a
	// sharded run this is the sender arena (Shard.Pools.Arena(0)).
	Pool *seg.Pool
	// Shard, when set, splits the run across engine shards: senders, the
	// path and all sampling stay on shard 0 (the engine passed to New),
	// receivers live on Shard.RxShard, and warmup/interval bookkeeping runs
	// at consistent barrier cuts. nil runs serial, unchanged.
	Shard *Shard
}

// Shard carries the dependencies of a split run. core.Run assembles it: a
// sharded engine, the cross wiring replacing the path's last propagation
// leg, the receiver's shard index and the pool arenas (arena 0 doubles as
// Config.Pool; arena RxShard serves the receivers).
type Shard struct {
	Engines *sim.ShardedEngine
	Wiring  *netem.CrossWiring
	RxShard int
	Pools   *seg.PoolSet
}

// Session is one assembled iPerf run.
type Session struct {
	eng  *sim.Engine
	cpu  *cpumodel.CPU
	path *netem.Path
	cfg  Config

	conns []*tcp.Conn
	rxs   []*tcp.Receiver

	// agg is the run-wide O(1) counter sink: warmup snapshots and interval
	// reports read it instead of walking every connection, so the periodic
	// paths cost the same at 4 connections and at 100k. Collect still walks
	// once at run end (per-conn columns need it), and tests assert the
	// counter equals the walk exactly.
	agg *tcp.AggStats

	warmupBytes units.DataSize
	rttSamples  stats.Online

	intervals     []Interval
	lastIvalBytes units.DataSize
	lastIvalRetx  int64

	// The periodic paths' callbacks, bound once so that re-arming them
	// allocates no method value per tick.
	sampleFn   func()
	intervalFn func()
}

// Interval is one iperf3-style reporting interval.
type Interval struct {
	// Start and End bound the interval in virtual time.
	Start, End time.Duration
	// Goodput is the aggregate receiver goodput over the interval.
	Goodput units.Bandwidth
	// Retransmits is the retransmission count within the interval.
	Retransmits int64
	// AvgRTT is the mean smoothed RTT across connections at interval end.
	AvgRTT time.Duration
}

// New assembles a session: conns connections, receivers, and the demux. It
// does not start transmission; call Start (or Run). A config without a
// congestion-control factory is a caller input error, returned — not
// panicked.
func New(eng *sim.Engine, cpu *cpumodel.CPU, path *netem.Path, cfg Config) (*Session, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.CC == nil && len(cfg.CCMix) == 0 {
		return nil, fmt.Errorf("iperf: Config.CC or Config.CCMix is required")
	}
	if cfg.Shard != nil && cfg.Stream {
		// Stream mode hands the send side to the apps layer, whose server
		// and return-stream model sit on the sender's engine.
		return nil, fmt.Errorf("iperf: sharded runs do not support stream mode")
	}
	s := &Session{eng: eng, cpu: cpu, path: path, cfg: cfg, agg: &tcp.AggStats{}}
	s.sampleFn = s.sample
	s.intervalFn = s.recordInterval
	// Cache/TLB pressure grows gently with the number of hot sockets.
	pressure := 1 + 0.05*math.Log(float64(cfg.Conns))
	cpu.SetPressure(pressure)
	if cfg.AppCPU != nil {
		cfg.AppCPU.SetPressure(pressure)
	}
	// One arena holds the run's connections: their wiring, one allocation
	// of exactly Conns slots, and the scoreboard entries they share.
	arena := tcp.NewArena(eng, cpu, cfg.AppCPU, path, cfg.TCP, cfg.Pool, s.agg, nil)
	arena.SetBus(cfg.Bus)
	demux := tcp.NewDemux()
	rxPool := cfg.Pool
	if sh := cfg.Shard; sh != nil {
		rxPool = sh.Pools.Arena(sh.RxShard)
		arena.SetShard(sh.Engines.Shard(sh.RxShard), rxPool, sh.Wiring.ReturnAck)
	}
	demux.SetPool(rxPool)
	path.SetPool(cfg.Pool)
	arena.Reserve(cfg.Conns)
	s.conns = make([]*tcp.Conn, 0, cfg.Conns)
	s.rxs = make([]*tcp.Receiver, 0, cfg.Conns)
	for i := 0; i < cfg.Conns; i++ {
		var startDelay time.Duration
		if cfg.Conns > 1 {
			startDelay = time.Duration(eng.Rand().Int63n(int64(staggerStarts)))
		}
		factory := cfg.CC
		if len(cfg.CCMix) > 0 {
			factory = cfg.CCMix[i%len(cfg.CCMix)]
		}
		pc := arena.Open(i, startDelay, factory)
		if cfg.Stream {
			pc.Conn.SetStream()
		}
		if cfg.Bus != nil || cfg.Metrics != nil {
			pc.Conn.SetTelemetry(telemetry.NewConnMetrics(cfg.Metrics, i))
		}
		demux.Add(pc.Rx)
		s.conns = append(s.conns, pc.Conn)
		s.rxs = append(s.rxs, pc.Rx)
	}
	if sh := cfg.Shard; sh != nil {
		// The last hop posts across the shard boundary; packets surface on
		// the receiver shard through the wiring, never through path.recv.
		sh.Wiring.SetReceiver(demux.Handle)
	} else {
		path.SetReceiver(demux.Handle)
	}
	return s, nil
}

// Conns returns the session's connections (for experiment-specific probes).
func (s *Session) Conns() []*tcp.Conn { return s.conns }

// Receivers returns the per-connection server-side receivers, index-aligned
// with Conns (the apps layer wraps each pair into a virtual socket).
func (s *Session) Receivers() []*tcp.Receiver { return s.rxs }

// Start begins transmission and metric sampling.
func (s *Session) Start() {
	for _, c := range s.conns {
		c.Start()
	}
	s.eng.Schedule(SampleEvery, s.sampleFn)
	warmup := func() {
		// The O(1) counter is integer-identical to the per-receiver sum.
		s.warmupBytes = s.agg.GoodBytes()
	}
	if sh := s.cfg.Shard; sh != nil {
		// Warmup and interval reports read receiver-shard state (the
		// aggregate goodput counter), so they run at consistent barrier
		// cuts; each fires as one global, keeping the processed-event count
		// identical to the serial engine's.
		if s.cfg.Interval > 0 {
			sh.Engines.GlobalEvery(s.cfg.Interval, func() {
				s.recordIntervalAt(s.eng.Now())
			})
		}
		if s.cfg.Warmup > 0 {
			sh.Engines.GlobalAt(s.cfg.Warmup, warmup)
		}
		return
	}
	if s.cfg.Interval > 0 {
		s.eng.Schedule(s.cfg.Interval, s.intervalFn)
	}
	if s.cfg.Warmup > 0 {
		s.eng.Schedule(s.cfg.Warmup, warmup)
	}
}

func (s *Session) sample() {
	for _, c := range s.conns {
		if srtt := c.SRTT(); srtt > 0 {
			s.rttSamples.Add(float64(srtt))
		}
	}
	s.eng.Schedule(SampleEvery, s.sampleFn)
}

// recordInterval closes one reporting interval and schedules the next.
func (s *Session) recordInterval() {
	s.recordIntervalAt(s.eng.Now())
	s.eng.Schedule(s.cfg.Interval, s.intervalFn)
}

// recordIntervalAt closes the interval ending at now; the sharded engine
// calls it from a periodic global instead of a self-rescheduling event.
func (s *Session) recordIntervalAt(now time.Duration) {
	// Goodput and retransmits come from the O(1) aggregate counters
	// (maintained at delivery/ACK time, integer-identical to the walks
	// they replaced). The RTT column is a snapshot of each connection's
	// current srtt — a poll by definition — and iperf's per-conn loop
	// stays for it; the scale workload (internal/flows) reports the
	// aggregate per-ACK RTT mean instead.
	bytes := s.agg.GoodBytes()
	retx := s.agg.Retransmits()
	var rtt stats.Online
	for _, c := range s.conns {
		if srtt := c.SRTT(); srtt > 0 {
			rtt.Add(float64(srtt))
		}
	}
	iv := Interval{
		Start:       now - s.cfg.Interval,
		End:         now,
		Goodput:     units.BandwidthFromBytes(bytes-s.lastIvalBytes, s.cfg.Interval),
		Retransmits: retx - s.lastIvalRetx,
		AvgRTT:      time.Duration(rtt.Mean()),
	}
	s.intervals = append(s.intervals, iv)
	s.lastIvalBytes = bytes
	s.lastIvalRetx = retx
}

// Aggregates exposes the run-wide O(1) counter sink (for harnesses layered
// on the session and for equality tests against the slow walks).
func (s *Session) Aggregates() *tcp.AggStats { return s.agg }

// Run executes the whole experiment on the engine and returns the report.
func (s *Session) Run() *Report {
	s.Start()
	if sh := s.cfg.Shard; sh != nil {
		sh.Engines.Run(s.cfg.Duration)
	} else {
		s.eng.Run(s.cfg.Duration)
	}
	return s.Finish()
}

// Finish stops the connections, reclaims pooled objects parked past the
// run horizon, and collects the report. Callers that interleave their own
// teardown between the engine run and collection (the apps workloads shut
// their virtual sockets down first) drive Start / eng.Run / Finish
// themselves instead of Run.
func (s *Session) Finish() *Report {
	for _, c := range s.conns {
		c.Stop()
	}
	// The engine halted at the run horizon with deliver/process events
	// still pending; the packets and ACKs those events own are handed back
	// through the hold lists so the pool balances to zero.
	s.path.Reclaim()
	if sh := s.cfg.Shard; sh != nil {
		sh.Wiring.Reclaim(s.cfg.Pool, sh.Pools.Arena(sh.RxShard))
	}
	for _, c := range s.conns {
		c.ReclaimAcks()
	}
	return s.Collect()
}

// Report is the measurement output of one run.
type Report struct {
	// Goodput is the aggregate receiver-side goodput over the
	// measurement interval (duration minus warmup).
	Goodput units.Bandwidth
	// PerConn is each connection's goodput.
	PerConn []units.Bandwidth
	// Retransmits is the total retransmitted segments (iperf3 Retr).
	Retransmits int64
	// Lost is the total segments marked lost by the senders.
	Lost int64
	// AvgRTT is the mean of periodically sampled smoothed RTTs, the way
	// `ss` polling measures it.
	AvgRTT time.Duration
	// MinRTT is the smallest transport min-RTT across connections.
	MinRTT time.Duration
	// AvgSKB / AvgIdle are the per-pacing-period socket-buffer length
	// and idle time averaged across connections (Table 2 columns).
	AvgSKB units.DataSize
	// AvgIdle is the mean pacing idle time per period.
	AvgIdle time.Duration
	// PacingTimerEvents counts pacing-timer activations across conns.
	PacingTimerEvents uint64
	// ExpectedTx is the paper's Table 2 model: skb×conns/idle.
	ExpectedTx units.Bandwidth
	// MaxBufferOcc is the peak total socket-buffer occupancy (§7.1.1).
	MaxBufferOcc units.DataSize
	// CPUUtil is the netstack CPU's busy fraction for the run.
	CPUUtil float64
	// PathDrops counts packets dropped anywhere on the path.
	PathDrops uint64
	// Fairness scores the per-connection goodput split (§7.1.3).
	Fairness Fairness
	// CPUBreakdown is each operation's share of netstack-CPU cycles —
	// the §6 overhead evidence (e.g. CPUBreakdown["pacing_timer"]).
	CPUBreakdown map[string]float64
	// Intervals holds the iperf3-style per-interval series when
	// Config.Interval was set.
	Intervals []Interval
	// SpuriousRTOs counts F-RTO-detected spurious timeouts across conns —
	// expected to be nonzero under blackout/handover fault schedules.
	SpuriousRTOs int64
	// ConnErrors lists the connections the transport declared dead (RTO
	// retries exhausted, stall watchdog) with their reasons. A dead
	// connection is a measured outcome of the run, not a run failure.
	ConnErrors []error
	// Metrics is the telemetry-registry snapshot when Config.Metrics was
	// set (nil otherwise).
	Metrics *telemetry.Snapshot
	// Pool is the packet/ACK recycler census when Config.Pool was set:
	// how many objects were handed out, how many of those were recycled
	// rather than freshly allocated, and what was still outstanding at
	// collection time (zero after a clean reclaim).
	Pool seg.PoolStats
}

// Fairness summarizes how one run's per-connection goodputs split the
// bandwidth — the §7.1.3 question the paper leaves open: packet pacing is
// known to improve fairness, so do pacing strides give it back up?
type Fairness struct {
	// Jain is Jain's fairness index.
	Jain float64
}

// Score builds a Fairness from per-connection goodputs.
func Score(perConn []units.Bandwidth) Fairness {
	f := make([]float64, len(perConn))
	for i, x := range perConn {
		f[i] = float64(x)
	}
	return Fairness{Jain: stats.JainIndex(f)}
}

// WriteIntervalsCSV writes the interval series as CSV (start_s, end_s,
// goodput_mbps, retransmits, rtt_ms).
func (r *Report) WriteIntervalsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "start_s,end_s,goodput_mbps,retransmits,rtt_ms"); err != nil {
		return err
	}
	for _, iv := range r.Intervals {
		if _, err := fmt.Fprintf(w, "%.2f,%.2f,%.3f,%d,%.3f\n",
			iv.Start.Seconds(), iv.End.Seconds(),
			float64(iv.Goodput)/1e6, iv.Retransmits,
			float64(iv.AvgRTT)/1e6); err != nil {
			return err
		}
	}
	return nil
}

// Collect gathers the report after the engine has run.
func (s *Session) Collect() *Report {
	dur := s.cfg.Duration - s.cfg.Warmup
	if dur <= 0 {
		dur = s.cfg.Duration
	}
	r := &Report{
		AvgRTT:       time.Duration(s.rttSamples.Mean()),
		CPUUtil:      s.cpu.TotalUtilization(),
		CPUBreakdown: s.cpu.Breakdown(),
		PathDrops:    s.path.TotalDrops(),
	}
	if s.cfg.Metrics != nil {
		r.Metrics = s.cfg.Metrics.Snapshot()
	}
	if sh := s.cfg.Shard; sh != nil {
		// The summed arena census: the same conservation totals as a serial
		// pool, though the Gets/News split differs (arenas allocate
		// independently before rebalancing kicks in).
		r.Pool = sh.Pools.Stats()
	} else if s.cfg.Pool != nil {
		r.Pool = s.cfg.Pool.Stats()
	}
	var goodBytes units.DataSize
	var sumSKB, sumIdle, periods float64
	for i, rx := range s.rxs {
		b := rx.GoodBytes()
		goodBytes += b
		r.PerConn = append(r.PerConn, units.BandwidthFromBytes(b, s.cfg.Duration))
		st := s.conns[i].Stats()
		r.Retransmits += st.Retransmits
		r.Lost += st.Lost
		r.SpuriousRTOs += st.SpuriousRTOs
		if st.Failed != nil {
			r.ConnErrors = append(r.ConnErrors, st.Failed)
		}
		if st.MinRTT > 0 && (r.MinRTT == 0 || st.MinRTT < r.MinRTT) {
			r.MinRTT = st.MinRTT
		}
		r.MaxBufferOcc += st.MaxBufferOcc
		ps := st.PacerStats
		sumSKB += float64(ps.AvgSKB) * float64(ps.Periods)
		sumIdle += float64(ps.AvgIdle) * float64(ps.Periods)
		periods += float64(ps.Periods)
		r.PacingTimerEvents += ps.TimerArms
	}
	goodBytes -= s.warmupBytes
	r.Goodput = units.BandwidthFromBytes(goodBytes, dur)
	r.Fairness = Score(r.PerConn)
	r.Intervals = s.intervals
	if periods > 0 {
		r.AvgSKB = units.DataSize(sumSKB / periods)
		r.AvgIdle = time.Duration(sumIdle / periods)
		if r.AvgIdle > 0 {
			r.ExpectedTx = units.Bandwidth(
				float64(r.AvgSKB) * 8 * float64(len(s.conns)) / r.AvgIdle.Seconds())
		}
	}
	return r
}
