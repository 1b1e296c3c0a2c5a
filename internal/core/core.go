// Package core is the library's public experiment API — the layer the
// examples, the CLI tools and the benchmarks drive. A Spec describes one
// experiment exactly the way the paper's methodology section does (phone,
// Table 1 CPU configuration, congestion control, number of parallel iPerf
// connections, network, tc impairments, and the §5/§6 master-module and
// pacing-stride knobs); Run assembles the simulated testbed and returns the
// measured Report; RunSeeds repeats a Spec across seeds and aggregates, as
// the paper averages each point over at least 10 runs.
package core

import (
	"fmt"
	"strings"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/cc/cubic"
	"mobbr/internal/cc/reno"
	"mobbr/internal/check"
	"mobbr/internal/cpumodel"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/flows"
	"mobbr/internal/iperf"
	"mobbr/internal/mobility"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/stats"
	"mobbr/internal/tcp"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// Network selects the testbed medium (§3.2 and Appendix A.1).
type Network int

// Testbed networks.
const (
	// Ethernet is the wired 1 Gbps LAN through the OpenWRT router.
	Ethernet Network = iota
	// WiFi is the 802.11 LAN with the phone ~1 m from the AP.
	WiFi
	// Cellular is the T-Mobile LTE uplink of Appendix A.1.
	Cellular
	// Cellular5G is the ≈200 Mbps mmWave uplink the paper predicts will
	// re-expose the pacing bottleneck that LTE hides.
	Cellular5G
)

// networks is the testbed table, indexed by Network: each medium's token
// (its name in reports, in the spec codec and on the command line) and
// the preset that builds its path.
var networks = [...]struct {
	token string
	path  func(*sim.Engine, netem.TC) (*netem.Path, error)
}{
	Ethernet: {"ethernet", netem.EthernetLAN},
	WiFi: {"wifi", func(eng *sim.Engine, tc netem.TC) (*netem.Path, error) {
		path, mod, err := netem.WiFiLAN(eng, tc)
		if err == nil {
			mod.Start()
		}
		return path, err
	}},
	Cellular:   {"cellular", netem.CellularLTE},
	Cellular5G: {"5g", netem.Cellular5G},
}

// Networks counts the testbed networks: the valid values run from 0 up
// to it.
const Networks = len(networks)

// String returns the network's token, or "unknown".
func (n Network) String() string {
	if uint(n) >= uint(Networks) {
		return "unknown"
	}
	return networks[n].token
}

// MarshalText returns the network's token, or "unknown".
func (n Network) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// UnmarshalText sets n to the network whose token is text.
func (n *Network) UnmarshalText(text []byte) error {
	for i := range networks {
		if networks[i].token == string(text) {
			*n = Network(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown network token %q", text)
}

// Spec describes one experiment.
type Spec struct {
	// Device is the phone (Pixel 4 or Pixel 6).
	Device device.Model
	// CPU is the Table 1 configuration.
	CPU device.Config
	// CC names the congestion control: "cubic", "bbr", "bbr2" or
	// "reno". A comma-separated list ("bbr,cubic") assigns algorithms
	// round-robin across connections for coexistence experiments.
	CC string
	// Conns is the number of parallel connections.
	Conns int
	// Duration is the transmit time (the paper uses 5 minutes; shorter
	// runs converge to the same steady state in simulation). Zero means
	// 10 s; a negative duration is rejected.
	Duration time.Duration
	// Warmup excludes the initial ramp from goodput accounting.
	Warmup time.Duration
	// Network selects the medium.
	Network Network
	// TC applies router impairments (rate, delay, loss, queue depth).
	TC netem.TC
	// PacingOverride forces pacing on/off regardless of the CC (§5.2).
	PacingOverride *bool
	// Stride is the pacing stride (§6.2); <1 means stock (1×).
	Stride float64
	// HardwarePacing offloads per-send pacing timers to the NIC
	// (§7.1.4): gaps are still enforced but cost no CPU.
	HardwarePacing bool
	// FixedPacingRate pins each connection's pacing rate (§5.1.2).
	FixedPacingRate units.Bandwidth
	// FixedCwnd pins the congestion window in packets (§5.1).
	FixedCwnd int
	// DisableModel turns off the CC's per-ACK computation (§5.1.1).
	DisableModel bool
	// Interval, when nonzero, records iperf3-style per-interval reports
	// in the result (Report.Intervals), at most maxIntervalReports of them.
	Interval time.Duration
	// SndBuf overrides the per-socket send buffer (default 256 KB).
	// High-BDP paths (the 5G scenario) need more, as Android's wmem
	// auto-tuning would provide.
	SndBuf units.DataSize
	// Workload selects the application driving each connection. The zero
	// value (empty Kind) is the paper's iPerf bulk upload; "reqrep" and
	// "stream" run closed-loop request/response and chunked live-upload
	// clients as engine callbacks, reporting per-operation latency
	// quantiles and rebuffer ratios in Result.App.
	Workload apps.Workload
	// Flows, when set, replaces the fixed connection set with the churn
	// workload (internal/flows): open-loop Poisson arrivals, heavy-tailed
	// elephant/mice sizes, FIN-on-completion recycling through a pooled
	// conn lifecycle. Conns is ignored (the live population is dynamic);
	// mutually exclusive with Workload and with a CC mix. Results land in
	// Result.Flows.
	Flows *flows.Config
	// Seed drives all randomness; runs are fully deterministic per seed.
	Seed int64
	// Faults is the fault-injection schedule applied to the path while
	// the run executes: blackouts, handovers, rate ramps, delay spikes,
	// burst loss. Schedule.Hop indexes the chosen network's hops (0 is
	// the hop at the sender — devnic, air or radio).
	Faults faults.Schedule
	// Mobility replays a compiled bandwidth/RTT/loss trace on the path:
	// its fault schedule is installed and its segment timeline is
	// published on the telemetry bus. Mutually exclusive with Faults.
	Mobility *mobility.Compiled
	// Check arms the sim-wide invariant checker (internal/check): every
	// connection's bookkeeping is audited throughout the run and Run
	// returns a structured error when an invariant is violated.
	Check bool
	// MaxEvents bounds the simulator events one run may process
	// (0 = default 200M). Exceeding it fails the run with a budget error
	// naming the last-scheduled event time.
	MaxEvents uint64
	// MaxWallClock bounds the real time one run may take (0 = default
	// 2 minutes; negative = unbounded).
	MaxWallClock time.Duration
	// MaxStall bounds how many consecutive engine events may execute
	// without the virtual clock advancing before the run fails with a
	// stall error (0 = default 2M). A zero-delay event loop stalls
	// virtual time while burning wall clock; this watchdog names it
	// directly instead of waiting for MaxEvents or the wall deadline.
	MaxStall uint64
	// Inject arms one deliberate harness-level fault inside the run —
	// the chaos and resilience layers use it to prove that panics,
	// stalls, accounting corruption and pool leaks are contained and
	// reported rather than silently propagated. The zero value injects
	// nothing.
	Inject Inject
	// Telemetry selects the run's observability layers (trace bus,
	// metrics registry, cycle profiler). The zero value disables all of
	// them — the hot paths then pay only nil-checks.
	Telemetry telemetry.Config
	// Shards splits the run across engine shards executing concurrently
	// under a conservative lookahead protocol (internal/sim.ShardedEngine):
	// the phone — senders, path, CPU model, telemetry — on shard 0, the
	// server's receivers on shard 1, synchronized on the last hop's
	// propagation delay. Output is byte-identical to a serial run. 0 or 1
	// runs serial; values above 2 clamp to 2 (the bulk topology has two
	// hosts). Workloads bound to one engine — churn (Flows), application
	// workloads, mobility traces, fault schedules (which may shrink the
	// lookahead mid-run) — fall back to serial.
	// Deliberately absent from the spec wire form: it selects an execution
	// strategy, not an experiment, so archived rows compare equal across
	// shard counts.
	Shards int
}

// sharded reports whether Run will actually split this spec across shards
// (Shards asks for it and no serial-only feature is in play).
func (s Spec) sharded() bool {
	return s.Shards > 1 && s.Flows == nil && s.Workload.Kind == "" &&
		s.Mobility == nil && s.Faults.Empty()
}

// Inject kinds. Each is a deliberate harness fault fired at Inject.At of
// virtual time.
const (
	// InjectPanic panics inside an engine callback — exercises the
	// runners' per-point panic containment.
	InjectPanic = "panic"
	// InjectStall enters a zero-delay self-rescheduling event loop —
	// virtual time stops advancing and the stall watchdog must trip.
	InjectStall = "stall"
	// InjectCorruptInflight skews connection 0's inflight counter — the
	// invariant checker (Spec.Check) must turn it into a structured
	// violation.
	InjectCorruptInflight = "corrupt-inflight"
	// InjectLeakPacket acquires one pool packet and drops it — the
	// end-of-run leak audit (Spec.Check) must report it.
	InjectLeakPacket = "leak-packet"
	// InjectLeakMailbox drops one packet inside the cross-shard mailbox at
	// the next window barrier — the sharded conservation audit (Spec.Check
	// with Spec.Shards > 1) must catch it within one audit cycle.
	InjectLeakMailbox = "leak-mailbox"
)

// Inject describes one deliberate harness-level fault.
type Inject struct {
	// Kind selects the fault ("" = none): InjectPanic, InjectStall,
	// InjectCorruptInflight, InjectLeakPacket or InjectLeakMailbox.
	Kind string
	// At is the virtual time the fault fires.
	At time.Duration
}

// Validate rejects unknown kinds and negative times.
func (in Inject) Validate() error {
	switch in.Kind {
	case "", InjectPanic, InjectStall, InjectCorruptInflight, InjectLeakPacket, InjectLeakMailbox:
	default:
		return fmt.Errorf("unknown inject kind %q", in.Kind)
	}
	if in.At < 0 {
		return fmt.Errorf("inject at %v is negative", in.At)
	}
	return nil
}

func (s Spec) withDefaults() Spec {
	if s.CC == "" {
		s.CC = "cubic"
	}
	if s.Conns <= 0 {
		s.Conns = 1
	}
	if s.Duration == 0 {
		s.Duration = 10 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MaxEvents == 0 {
		s.MaxEvents = 200_000_000
	}
	if s.MaxWallClock == 0 {
		s.MaxWallClock = 2 * time.Minute
	}
	if s.MaxStall == 0 {
		s.MaxStall = 2_000_000
	}
	return s
}

// Validate rejects malformed specs with a descriptive error before any
// simulation state is built. Run calls it on the defaulted spec; callers
// can use it directly for early feedback.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if err := s.Device.Valid(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := s.CPU.Valid(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for _, name := range strings.Split(s.CC, ",") {
		if _, ok := registered[strings.TrimSpace(name)]; !ok {
			return fmt.Errorf("core: unknown congestion control %q", name)
		}
	}
	if uint(s.Network) >= uint(Networks) {
		return fmt.Errorf("core: unknown network %d", int(s.Network))
	}
	if s.Duration < 0 {
		return fmt.Errorf("core: negative duration %v", s.Duration)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("core: negative warmup %v", s.Warmup)
	}
	if s.Warmup >= s.Duration {
		return fmt.Errorf("core: warmup %v must be shorter than duration %v", s.Warmup, s.Duration)
	}
	if s.Interval < 0 {
		return fmt.Errorf("core: negative interval %v", s.Interval)
	}
	if s.Interval > 0 && s.Duration/s.Interval > maxIntervalReports {
		return fmt.Errorf("core: interval %v over duration %v gives %d reports, more than %d",
			s.Interval, s.Duration, s.Duration/s.Interval, maxIntervalReports)
	}
	if s.Stride < 0 {
		return fmt.Errorf("core: negative pacing stride %v", s.Stride)
	}
	if s.FixedCwnd < 0 {
		return fmt.Errorf("core: negative fixed cwnd %d", s.FixedCwnd)
	}
	if s.FixedPacingRate < 0 {
		return fmt.Errorf("core: negative fixed pacing rate %v", s.FixedPacingRate)
	}
	if s.SndBuf < 0 {
		return fmt.Errorf("core: negative send buffer %v", s.SndBuf)
	}
	if err := s.TC.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.Flows != nil {
		if s.Workload.Kind != "" {
			return fmt.Errorf("core: Flows and Workload are mutually exclusive")
		}
		if s.Inject.Kind == InjectCorruptInflight {
			return fmt.Errorf("core: inject %q needs a fixed connection set (Flows is set)", s.Inject.Kind)
		}
		if strings.Contains(s.CC, ",") {
			return fmt.Errorf("core: a CC mix (%q) needs a fixed connection set; Flows runs one congestion control", s.CC)
		}
		if err := s.Flows.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := s.Inject.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", s.Shards)
	}
	if s.Inject.Kind == InjectLeakMailbox && !s.sharded() {
		return fmt.Errorf("core: inject %q needs a sharded run (Shards > 1 with no serial-only features)", s.Inject.Kind)
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.Mobility != nil {
		if !s.Faults.Empty() {
			return fmt.Errorf("core: Mobility and Faults are mutually exclusive (the trace compiles to its own schedule)")
		}
		if err := s.Mobility.Schedule.Validate(); err != nil {
			return fmt.Errorf("core: mobility trace %q: %w", s.Mobility.Trace.Name, err)
		}
	}
	return nil
}

// String summarizes the spec for reports.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s %s conns=%d net=%s", s.Device, s.CPU, s.CC, s.Conns, s.Network)
}

// registered maps each congestion control's name to what builds its
// factories. A factory belongs to one run, so each run builds its own.
var registered = map[string]func() cc.Factory{
	"cubic": cubic.Factory,
	"bbr":   bbr.Factory,
	"bbr2":  bbrv2.Factory,
	"reno":  reno.Factory,
}

// Factories returns a new factory for each registered congestion control,
// by name.
func Factories() map[string]cc.Factory {
	m := make(map[string]cc.Factory, len(registered))
	for name, newFactory := range registered {
		m[name] = newFactory()
	}
	return m
}

// Result is one run's outcome.
type Result struct {
	Spec   Spec
	Report *iperf.Report
	// Events is the run's telemetry bus when Spec.Telemetry.Trace was set
	// (nil otherwise); write it out with Events.WriteJSONL.
	Events *telemetry.Bus
	// Profile attributes CPU-model cycles by core × phase × op when
	// Spec.Telemetry.Profile was set.
	Profile *telemetry.Profile
	// Engine holds simulator self-metrics when Spec.Telemetry.Metrics was
	// set: events processed, events/sec of wall clock, heap allocations
	// per simulated second.
	Engine *telemetry.EngineStats
	// Processed is the number of simulator events this run executed. It is
	// deterministic per seed (unlike the wall-clock figures in Engine) and
	// always recorded, so grid runners can report throughput and archives
	// can carry engine totals without enabling telemetry.
	Processed uint64
	// App is the application-level outcome when Spec.Workload selected a
	// workload (nil for bulk runs): request/chunk latency samples,
	// completion counts, and viewer rebuffer accounting.
	App *apps.Stats
	// Flows is the churn-level outcome when Spec.Flows was set (nil
	// otherwise): flow counts, FCT samples, conn-pool census, flow-table
	// accounting.
	Flows *flows.Stats
}

// flowsAuditStride bounds one invariant-checker pass under the churn
// workload: at most this many connections audited per tick, round-robin,
// so a 100k-flow run is not O(conns) every 50 ms of virtual time.
const flowsAuditStride = 256

// maxIntervalReports bounds Duration/Interval: each report is kept in the
// result, so a nanosecond interval would otherwise exhaust memory.
const maxIntervalReports = 1_000_000

// Run executes one experiment. It validates the spec, enforces the event
// and wall-clock budgets, and — when spec.Check is set — fails with a
// structured invariant-violation error instead of returning corrupt data.
func Run(spec Spec) (*Result, error) { return run(spec, true) }

// run is Run with the run-private packet/ACK recycler switchable: unpooled
// runs allocate every segment fresh from the heap, for the pooled-vs-fresh
// differential test, on serial specs only.
func run(spec Spec, pooled bool) (*Result, error) {
	spec = spec.withDefaults()
	// Every failure path returns a *RunError wrapping the defaulted spec,
	// so the error text always ends with a one-command repro line, and the
	// event log so far once there is one.
	var bus *telemetry.Bus
	fail := func(err error) error { return &RunError{Spec: spec, Err: err, Events: bus} }
	if err := spec.Validate(); err != nil {
		return nil, fail(err)
	}
	// Each name resolves to one factory, which Validate vouched for. The
	// kernel's BBR re-measures propagation delay every 10 s; runs shorter
	// than a few windows scale the filter down so steady-state min-RTT
	// refresh and PROBE_RTT dynamics still happen (the paper's physical
	// runs last 5 minutes).
	names := strings.Split(spec.CC, ",")
	factories := make([]cc.Factory, len(names))
	for i, name := range names {
		factory := registered[strings.TrimSpace(name)]()
		if w := spec.Duration / 3; w < 10*time.Second {
			if w < 500*time.Millisecond {
				w = 500 * time.Millisecond
			}
			inner := factory
			factory = func() cc.CongestionControl {
				m := inner()
				if b, ok := m.(interface{ SetMinRTTWindow(time.Duration) }); ok {
					b.SetMinRTTWindow(w) // both BBRs, through their shared model
				}
				return m
			}
		}
		if spec.FixedCwnd > 0 || spec.FixedPacingRate > 0 || spec.DisableModel {
			factory = cc.WrapFactory(factory, cc.Overrides{
				FixedCwnd:       spec.FixedCwnd,
				FixedPacingRate: spec.FixedPacingRate,
				DisableModel:    spec.DisableModel,
			})
		}
		factories[i] = factory
	}

	// Sharded runs build a two-shard engine — shard 0 seeded identically to
	// the serial engine, so every RNG draw replays in the serial order —
	// and assemble the phone on shard 0 with the server's receivers on
	// shard 1. Everything below that takes `eng` lands on shard 0.
	var se *sim.ShardedEngine
	var eng *sim.Engine
	if spec.sharded() {
		se = sim.NewSharded(spec.Seed, 2)
		eng = se.Shard(0)
	} else {
		eng = sim.New(spec.Seed)
	}
	wall := spec.MaxWallClock
	if wall < 0 {
		wall = 0
	}
	limits := sim.Limits{MaxEvents: spec.MaxEvents, WallClock: wall, MaxStall: spec.MaxStall}
	if se != nil {
		se.SetLimits(limits)
	} else {
		eng.SetLimits(limits)
	}
	cpu, appCPU := device.NewCPUs(eng, spec.Device, spec.CPU)

	// Observability: each layer is built only when asked for, and a nil
	// bus/registry/profile keeps every instrumentation site a no-op.
	tel := spec.Telemetry
	if tel.Trace {
		bus = telemetry.NewBus(eng, tel.MaxEvents)
	}
	var reg *telemetry.Registry
	if tel.Metrics {
		reg = telemetry.NewRegistry()
	}
	var prof *telemetry.Profile
	if tel.Profile {
		prof = telemetry.NewProfile()
		cpu.SetObserver(func(op cpumodel.Op, cycles float64) {
			prof.Add("net", op.String(), cycles)
		})
		appCPU.SetObserver(func(op cpumodel.Op, cycles float64) {
			prof.Add("app", op.String(), cycles)
		})
	}
	if bus != nil {
		// Governor frequency changes; only the net core reports — both
		// cores share one governor, so listening on both would duplicate.
		cpu.SetSpeedListener(func(old, new float64) {
			bus.Emit(telemetry.Event{Kind: telemetry.KindGovernor, Conn: -1, Value: new, V2: old})
		})
	}

	path, err := networks[spec.Network].path(eng, spec.TC)
	if err != nil {
		return nil, fail(fmt.Errorf("core: %w", err))
	}
	var wiring *netem.CrossWiring
	if se != nil {
		// Re-home the path's last propagation leg and ACK return onto shard
		// 1; the hop delays double as the conservative lookahead.
		wiring, err = netem.NewCrossWiring(se, path, 1)
		if err != nil {
			return nil, fail(fmt.Errorf("core: %w", err))
		}
	}
	sched := spec.Faults
	if spec.Mobility != nil {
		sched = spec.Mobility.Schedule
		if err := spec.Mobility.Install(eng, path, bus); err != nil {
			return nil, fail(fmt.Errorf("core: %w", err))
		}
	} else if !sched.Empty() {
		if err := sched.InstallObserved(eng, path, bus); err != nil {
			return nil, fail(fmt.Errorf("core: %w", err))
		}
	}
	if prof != nil {
		// Phase attribution: cycles before, during, and after the fault
		// window. With no faults the whole run is one "run" phase; an
		// open-ended schedule never leaves "during".
		if start, end, open, ok := sched.Window(); ok {
			prof.SetPhase("before")
			eng.Schedule(start, func() { prof.SetPhase("during") })
			if end > start && !open {
				eng.Schedule(end, func() { prof.SetPhase("after") })
			}
		}
	}

	cfg := tcp.Config{PacingOverride: spec.PacingOverride, SndBuf: spec.SndBuf}
	cfg.Pacing.Stride = spec.Stride
	cfg.Pacing.FixedRate = spec.FixedPacingRate
	cfg.Pacing.HardwareOffload = spec.HardwarePacing

	// The packet/ACK recycler is private to this run: repro grids run many
	// Run calls in parallel and a shared pool would race. Sharded runs give
	// each shard its own arena (packets home on the sender, ACKs too — the
	// receiver only recycles) and splice freelists back at every barrier.
	var pool *seg.Pool
	var ps *seg.PoolSet
	if pooled {
		if se != nil {
			ps = seg.NewPoolSet(2, 0, 1)
			pool = ps.Arena(0)
			se.OnBarrier(ps.Rebalance)
		} else {
			pool = seg.NewPool()
		}
	}

	icfg := iperf.Config{
		Conns:    spec.Conns,
		Duration: spec.Duration,
		Warmup:   spec.Warmup,
		Interval: spec.Interval,
		TCP:      cfg,
		AppCPU:   appCPU,
		Bus:      bus,
		Metrics:  reg,
		Pool:     pool,
	}
	if len(factories) == 1 {
		icfg.CC = factories[0]
	} else {
		icfg.CCMix = factories
	}
	if se != nil {
		icfg.Shard = &iperf.Shard{Engines: se, Wiring: wiring, RxShard: 1, Pools: ps}
	}
	var (
		sess  *iperf.Session
		asess *apps.Session
		fsess *flows.Session
	)
	switch {
	case spec.Flows != nil:
		fsess, err = flows.New(eng, cpu, path, icfg, *spec.Flows)
	case spec.Workload.Kind != "":
		asess, err = apps.New(eng, cpu, path, icfg, spec.Workload)
		if err == nil {
			sess = asess.Iperf()
		}
	default:
		sess, err = iperf.New(eng, cpu, path, icfg)
	}
	if err != nil {
		return nil, fail(fmt.Errorf("core: %w", err))
	}
	var chk *check.Checker
	if spec.Check {
		chk = check.New(eng, fmt.Sprintf("%s seed=%d", spec, spec.Seed), 0)
		chk.SetBus(bus)
		if fsess != nil {
			// The population churns, so the checker takes a live view,
			// amortizes each pass over a bounded stride, reads the global
			// held-ACK count from the O(1) aggregate (a partial pass
			// cannot sum it), and prunes history as flows retire.
			chk.WatchDynamic(fsess.Auditables)
			chk.SetAuditStride(flowsAuditStride)
			chk.SetHeldAcks(fsess.Aggregates().HeldAcks)
			fsess.SetOnRetire(chk.Forget)
		} else {
			for _, c := range sess.Conns() {
				chk.Watch(c)
			}
		}
		if ps != nil {
			// Audit the summed census across arenas and fold the cross-shard
			// mailbox custody into the in-transit count; the audit itself
			// fires at every-shard barrier cuts so both shards are quiescent.
			chk.WatchPool(ps, path)
			chk.SetCrossCensus(wiring.CrossPackets, wiring.CrossAcks)
		} else if pool != nil {
			chk.WatchPool(pool, path)
		}
		if se != nil {
			se.GlobalEvery(check.DefaultInterval, chk.CheckNow)
		} else {
			chk.Start()
		}
	}
	if bus != nil && sess != nil {
		// Periodic per-connection samples (cwnd, inflight, pacing rate,
		// srtt, CC mode) interleaved with the transport events. The churn
		// workload has no fixed connection set to trace.
		startSampler(eng, sess.Conns(), bus)
	}
	switch spec.Inject.Kind {
	case InjectPanic:
		eng.Schedule(spec.Inject.At, func() {
			panic(fmt.Sprintf("core: injected panic at %v", eng.Now()))
		})
	case InjectStall:
		var spin func()
		spin = func() { eng.Schedule(0, spin) }
		eng.Schedule(spec.Inject.At, spin)
	case InjectCorruptInflight:
		eng.Schedule(spec.Inject.At, func() { sess.Conns()[0].CorruptInflightForTest(3) })
	case InjectLeakPacket:
		eng.Schedule(spec.Inject.At, func() { pool.LeakPacketForTest() })
	case InjectLeakMailbox:
		eng.Schedule(spec.Inject.At, func() { wiring.ArmLeakForTest() })
	}
	var coll *telemetry.EngineCollector
	if tel.Metrics {
		coll = telemetry.StartEngineCollector(eng)
	}
	var (
		report    *iperf.Report
		appStats  *apps.Stats
		flowStats *flows.Stats
	)
	switch {
	case asess != nil:
		report, appStats = asess.Run()
	case fsess != nil:
		report, flowStats = fsess.Run()
	default:
		report = sess.Run()
	}
	var lerr error
	if se != nil {
		lerr = se.LimitErr()
	} else {
		lerr = eng.LimitErr()
	}
	if lerr != nil {
		return nil, fail(fmt.Errorf("core: %s seed=%d: %w", spec, spec.Seed, lerr))
	}
	if chk != nil {
		chk.CheckNow()
		// sess.Run has reclaimed the network's hold buffers by now, so
		// anything still outstanding in the pool is a genuine leak.
		chk.CheckLeaks()
		if cerr := chk.Err(); cerr != nil {
			return nil, fail(cerr)
		}
	}
	return &Result{
		Spec:      spec,
		Report:    report,
		Events:    bus,
		Profile:   prof,
		Engine:    coll.Stop(),
		Processed: processed(eng, se),
		App:       appStats,
		Flows:     flowStats,
	}, nil
}

// processed returns the run's executed event count: the shard sum plus
// barrier-global firings when sharded (which matches the serial engine's
// count exactly — each global firing replaces one serial timer event),
// otherwise the single engine's count.
func processed(eng *sim.Engine, se *sim.ShardedEngine) uint64 {
	if se != nil {
		return se.Processed()
	}
	return eng.Processed()
}

// Aggregate is the multi-seed summary of a Spec.
type Aggregate struct {
	Spec Spec
	// Goodput / RTT / Retransmits summarize across seeds.
	Goodput     stats.Online
	AvgRTT      stats.Online
	MinRTT      stats.Online
	Retransmits stats.Online
	AvgSKB      stats.Online
	AvgIdle     stats.Online
	ExpectedTx  stats.Online
	MaxBufOcc   stats.Online
	CPUUtil     stats.Online
	Runs        []*Result
	// App folds the per-seed application stats (nil for bulk runs):
	// latency samples are pooled across seeds so grid quantiles have
	// every completed operation behind them.
	App *apps.Stats
	// Flows folds the per-seed churn stats the same way (nil unless
	// Spec.Flows was set): FCT samples pool, counters sum.
	Flows *flows.Stats
}

// RunSeeds executes spec across n seeds (1, 2, …, n offsets from
// spec.Seed) and aggregates the reports.
func RunSeeds(spec Spec, n int) (*Aggregate, error) {
	if n <= 0 {
		n = 1
	}
	spec = spec.withDefaults()
	agg := &Aggregate{Spec: spec}
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = spec.Seed + int64(i)
		res, err := Run(s)
		if err != nil {
			return nil, fmt.Errorf("seed %d of %d (base %d): %w", s.Seed, n, spec.Seed, err)
		}
		r := res.Report
		agg.Goodput.Add(float64(r.Goodput))
		agg.AvgRTT.Add(float64(r.AvgRTT))
		agg.MinRTT.Add(float64(r.MinRTT))
		agg.Retransmits.Add(float64(r.Retransmits))
		agg.AvgSKB.Add(float64(r.AvgSKB))
		agg.AvgIdle.Add(float64(r.AvgIdle))
		agg.ExpectedTx.Add(float64(r.ExpectedTx))
		agg.MaxBufOcc.Add(float64(r.MaxBufferOcc))
		agg.CPUUtil.Add(r.CPUUtil)
		agg.Runs = append(agg.Runs, res)
	}
	appRuns := make([]*apps.Stats, 0, len(agg.Runs))
	flowRuns := make([]*flows.Stats, 0, len(agg.Runs))
	for _, res := range agg.Runs {
		appRuns = append(appRuns, res.App)
		flowRuns = append(flowRuns, res.Flows)
	}
	agg.App = apps.Merge(appRuns)
	agg.Flows = flows.Merge(flowRuns)
	return agg, nil
}
