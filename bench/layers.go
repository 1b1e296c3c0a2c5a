package main

import (
	"io"
	"runtime"
	"time"

	"mobbr/internal/cc/cctest"
	"mobbr/internal/check"
	"mobbr/internal/core"
	"mobbr/internal/cpumodel"
	"mobbr/internal/flows"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/pacing"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/simnet"
	"mobbr/internal/stats"
	"mobbr/internal/tcp"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// The layer pass times each layer's exported functions from outside, with a
// fixed operation count per driver and the median of layerReps repetitions.
// It needs no workload: its metrics are the same whichever workload's traced
// run repeats them. Which end-to-end metric each should move, on which
// workload, is tabulated in README.md.
const layerReps = 5

// pending is how many events every sim driver keeps queued.
const pending = 1024

type layerPass struct {
	e    *env
	seed int64
	r    workloadResult
}

// ops scales a driver's operation count down for the smoke run.
func (l *layerPass) ops(n int) int {
	if l.e.quick {
		n /= 20
	}
	return n
}

// bench measures a driver: setup builds fresh state and returns the closure
// that performs ops operations. It returns the medians of host nanoseconds
// and heap allocations per operation.
func (l *layerPass) bench(ops int, setup func() func()) (nsPerOp, allocsPerOp float64) {
	reps := layerReps
	if l.e.quick {
		reps = 2
	}
	var ns, allocs []float64
	for i := 0; i < reps; i++ {
		run := setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		run()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(wall.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	l.r.Attempted++
	return stats.Median(ns), stats.Median(allocs)
}

// runLayers executes every driver and returns the pass's result.
func runLayers(e *env, seed int64) workloadResult {
	l := &layerPass{e: e, seed: seed,
		r: workloadResult{Name: "layers", Seed: seed, Metrics: map[string]metric{}}}
	l.simLayer()
	l.netemLayer()
	l.segLayer()
	l.cpumodelLayer()
	l.ccLayer()
	l.pacingLayer()
	l.tcpLayer()
	l.telemetryLayer()
	l.checkLayer()
	l.simnetLayer()
	l.coreLayer()
	l.flowsLayer()
	return l.r
}

func (l *layerPass) simLayer() {
	ops := l.ops(400_000)
	// Schedule-and-pop at steady state: every popped event schedules its
	// successor delay ahead, so the queue stays at `pending`. 100 µs lands in
	// wheel level 0, 200 ms in level 1, 10 s in the heap alone.
	schedulePop := func(delay time.Duration) (float64, float64) {
		return l.bench(ops, func() func() {
			eng := sim.New(1)
			var fn sim.Event
			fn = func() { eng.Schedule(delay, fn) }
			for i := 0; i < pending; i++ {
				eng.Schedule(delay*time.Duration(i)/pending, fn)
			}
			return func() {
				for i := 0; i < ops; i++ {
					eng.Step()
				}
			}
		})
	}
	near, allocs := schedulePop(100 * time.Microsecond)
	l.r.set("sim.schedule_pop_near_ns", near)
	l.r.set("sim.allocs_per_event", allocs)
	mid, _ := schedulePop(200 * time.Millisecond)
	l.r.set("sim.schedule_pop_mid_ns", mid)
	far, _ := schedulePop(10 * time.Second)
	l.r.set("sim.schedule_pop_far_ns", far)

	ns, _ := l.bench(ops, func() func() {
		const delay = 100 * time.Microsecond
		eng := sim.New(1)
		var fn func(any)
		fn = func(arg any) { eng.ScheduleP(delay, fn, arg) }
		for i := 0; i < pending; i++ {
			eng.ScheduleP(delay*time.Duration(i)/pending, fn, eng)
		}
		return func() {
			for i := 0; i < ops; i++ {
				eng.Step()
			}
		}
	})
	l.r.set("sim.schedulep_pop_ns", ns)

	ns, _ = l.bench(ops, func() func() {
		eng := sim.New(1)
		timers := make([]sim.Timer, pending)
		for i := range timers {
			timers[i] = eng.Schedule(time.Millisecond+time.Duration(i), noop)
		}
		return func() {
			for i := 0; i < ops; i++ {
				j := i % pending
				timers[j].Reschedule(100*time.Microsecond + time.Duration(j))
			}
		}
	})
	l.r.set("sim.timer_reschedule_ns", ns)

	// Schedule+Stop; a stopped item is reclaimed when the scheduler next
	// passes it, so the clock advances once per batch.
	ns, _ = l.bench(ops, func() func() {
		const delay = 100 * time.Microsecond
		eng := sim.New(1)
		return func() {
			for done := 0; done < ops; done += pending {
				for j := 0; j < pending; j++ {
					eng.Schedule(delay, noop).Stop()
				}
				eng.Run(eng.Now() + 2*delay)
			}
		}
	})
	l.r.set("sim.timer_stop_ns", ns)

	ringDur := l.e.dur(0.02)
	for _, shards := range []int{1, 2} {
		var events uint64
		ns, _ := l.bench(1, func() func() {
			return func() { events = shardedRing(8, shards, ringDur) }
		})
		name := "sim.ring_ns_per_event_shards1"
		if shards == 2 {
			name = "sim.ring_ns_per_event_shards2"
		}
		l.r.set(name, ns/float64(events))
	}
}

// shardedRing drives h hosts on a ring across k engine shards: each host runs
// a dense local timer load and forwards a token to its successor over a
// 200 µs link, cross-shard wherever the partition cuts the ring. It returns
// the events executed in dur of virtual time. (The same load as the root
// package's BenchmarkShardedEngine, which a main package cannot import.)
func shardedRing(h, k int, dur time.Duration) uint64 {
	const (
		linkDelay  = 200 * time.Microsecond
		tickPeriod = 2 * time.Microsecond
	)
	se := sim.NewSharded(1, k)
	links := map[[2]int]*sim.CrossLink{}
	for host := 0; host < h; host++ {
		key := [2]int{host % k, (host + 1) % h % k}
		if key[0] != key[1] && links[key] == nil {
			links[key] = se.NewLink(key[0], key[1], linkDelay)
		}
	}
	type hostState struct {
		eng  *sim.Engine
		acc  uint64
		send func()
		tick func()
		recv func(any)
	}
	hosts := make([]*hostState, h)
	for i := range hosts {
		hosts[i] = &hostState{eng: se.Shard(i % k)}
	}
	for i, hs := range hosts {
		i, hs := i, hs
		succ := hosts[(i+1)%h]
		link := links[[2]int{i % k, (i + 1) % h % k}]
		hs.recv = func(any) { hs.send() }
		hs.send = func() {
			if link != nil {
				link.Post(i, linkDelay)
			} else {
				succ.eng.ScheduleP(linkDelay, succ.recv, i)
			}
		}
		hs.tick = func() {
			for j := 0; j < 256; j++ {
				hs.acc = hs.acc*2862933555777941757 + 3037000493
			}
			hs.eng.Schedule(tickPeriod, hs.tick)
		}
		hs.eng.Schedule(tickPeriod, hs.tick)
	}
	for key, link := range links {
		eng := se.Shard(key[1])
		link.SetInjector(func(arg any, at time.Duration) {
			eng.SchedulePAt(at, hosts[(arg.(int)+1)%h].recv, arg)
		})
	}
	for i, hs := range hosts {
		if i%k == 0 {
			hs.eng.Schedule(linkDelay, hs.send)
		}
	}
	se.Run(dur)
	return se.Processed()
}

// census fails the pass when a driver's pool did not balance.
func (l *layerPass) census(what string, pool *seg.Pool) {
	if st := pool.Stats(); st.OutstandingPackets != 0 || st.OutstandingAcks != 0 || st.Violations != 0 {
		l.r.fail("%s: seg.Pool census unbalanced: %+v", what, st)
	}
}

// testbed assembles what several drivers stand on: an engine, a pool, a
// modelled CPU and the Ethernet preset wired to the pool. The preset with no
// impairments cannot fail to build; if it does, that is a bug worth a panic.
func testbed() (*sim.Engine, *seg.Pool, *cpumodel.CPU, *netem.Path) {
	eng, pool := sim.New(1), seg.NewPool()
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		panic("bench: " + err.Error())
	}
	path.SetPool(pool)
	return eng, pool, cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 3e9), path
}

func (l *layerPass) netemLayer() {
	ops := l.ops(200_000)
	const batch = 128
	ns, _ := l.bench(ops, func() func() {
		eng, pool := sim.New(1), seg.NewPool()
		pipe, err := netem.NewPipe(eng, netem.PipeConfig{Rate: 10 * units.Gbps,
			Delay: 100 * time.Microsecond, QueuePackets: 2 * batch}, pool.PutPacket)
		if err != nil {
			l.r.fail("netem.NewPipe: %v", err)
			return noop
		}
		pipe.SetPool(pool)
		return func() {
			for done := 0; done < ops; done += batch {
				for j := 0; j < batch; j++ {
					p := pool.GetPacket()
					p.Len = seg.MSS
					pipe.Enqueue(p)
				}
				eng.Run(eng.Now() + time.Millisecond)
			}
			if got := pipe.Stats().Delivered; got < uint64(ops) {
				l.r.fail("netem.Pipe delivered %d of %d packets", got, ops)
			}
			l.census("netem.pipe_pkt", pool)
		}
	})
	l.r.set("netem.pipe_pkt_ns", ns)

	ns, _ = l.bench(ops, func() func() {
		eng, pool := sim.New(1), seg.NewPool()
		pipe, err := netem.NewPipe(eng, netem.PipeConfig{Rate: units.Gbps, QueuePackets: 4}, pool.PutPacket)
		if err != nil {
			l.r.fail("netem.NewPipe: %v", err)
			return noop
		}
		pipe.SetPool(pool)
		pipe.Pause()
		for i := 0; i < 4; i++ {
			pipe.Enqueue(pool.GetPacket())
		}
		return func() {
			for i := 0; i < ops; i++ {
				p := pool.GetPacket()
				p.Len = seg.MSS
				pipe.Enqueue(p)
			}
			if got := pipe.Stats().DropsQueue; got != uint64(ops) {
				l.r.fail("netem.Pipe dropped %d of %d packets at a full queue", got, ops)
			}
		}
	})
	l.r.set("netem.pipe_drop_ns", ns)

	ns, allocs := l.bench(ops, func() func() {
		eng, pool, _, path := testbed()
		acked := 0
		path.RegisterAckHandler(0, func(a *seg.Ack) {
			acked++
			pool.PutAck(a)
		})
		path.SetReceiver(func(p *seg.Packet) {
			pool.PutPacket(p)
			path.ReturnAckFlow(pool.GetAck())
		})
		return func() {
			for done := 0; done < ops; done += batch / 2 {
				for j := 0; j < batch/2; j++ {
					p := pool.GetPacket()
					p.Len = seg.MSS
					path.Send(p)
				}
				eng.Run(eng.Now() + 5*time.Millisecond)
			}
			if acked < ops {
				l.r.fail("netem.Path returned %d of %d ACKs", acked, ops)
			}
			l.census("netem.path_roundtrip", pool)
		}
	})
	l.r.set("netem.path_roundtrip_ns", ns)
	l.r.set("netem.allocs_per_pkt", allocs)
}

func (l *layerPass) segLayer() {
	ops := l.ops(1_000_000)
	ns, _ := l.bench(ops, func() func() {
		pool := seg.NewPool()
		return func() {
			for i := 0; i < ops; i++ {
				pool.PutPacket(pool.GetPacket())
			}
		}
	})
	l.r.set("seg.packet_getput_ns", ns)
	ns, _ = l.bench(ops, func() func() {
		pool := seg.NewPool()
		return func() {
			for i := 0; i < ops; i++ {
				pool.PutAck(pool.GetAck())
			}
		}
	})
	l.r.set("seg.ack_getput_ns", ns)

	// One op is a barrier's worth of traffic: 8 packets and 8 ACKs cross
	// between the arenas, then Rebalance splices the freelists home.
	cycles := ops / 16
	ns, _ = l.bench(cycles, func() func() {
		set := seg.NewPoolSet(2, 0, 1)
		tx, rx := set.Arena(0), set.Arena(1)
		return func() {
			for i := 0; i < cycles; i++ {
				for j := 0; j < 8; j++ {
					rx.PutPacket(tx.GetPacket())
					tx.PutAck(rx.GetAck())
				}
				set.Rebalance()
			}
			if st := set.Stats(); st.OutstandingPackets != 0 || st.OutstandingAcks != 0 || st.Violations != 0 {
				l.r.fail("seg.PoolSet census unbalanced: %+v", st)
			}
		}
	})
	l.r.set("seg.poolset_rebalance_ns", ns)
}

func (l *layerPass) cpumodelLayer() {
	ops := l.ops(400_000)
	const batch = 256
	submit := func(one func(cpu *cpumodel.CPU)) float64 {
		ns, _ := l.bench(ops, func() func() {
			eng := sim.New(1)
			cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 3e9)
			return func() {
				for done := 0; done < ops; done += batch {
					for j := 0; j < batch; j++ {
						one(cpu)
					}
					eng.Run(eng.Now() + time.Millisecond)
				}
			}
		})
		return ns
	}
	l.r.set("cpumodel.submit_ns", submit(func(cpu *cpumodel.CPU) {
		cpu.Submit(cpumodel.OpAckProcess, 1000, noop)
	}))
	done := func(any) {}
	l.r.set("cpumodel.submitp_ns", submit(func(cpu *cpumodel.CPU) {
		cpu.SubmitP(cpumodel.OpAckProcess, 1000, done, cpu)
	}))

	ops = l.ops(2_000_000)
	ns, _ := l.bench(ops, func() func() {
		ft := cpumodel.NewFlowTable(1024, 1, cpumodel.DefaultCosts())
		for i := 0; i < 1024; i++ {
			ft.LookupCost(i % 512)
		}
		return func() {
			for i := 0; i < ops; i++ {
				ft.LookupCost(i % 512)
			}
		}
	})
	l.r.set("cpumodel.flowtable_hit_ns", ns)
	// 4096 flows over 64 slots, one in eight retired after its lookup: nearly
	// every lookup walks the slow path and promotions churn.
	ns, _ = l.bench(ops, func() func() {
		ft := cpumodel.NewFlowTable(64, 1, cpumodel.DefaultCosts())
		return func() {
			for i := 0; i < ops; i++ {
				flow := i % 4096
				ft.LookupCost(flow)
				if i%8 == 0 {
					ft.Remove(flow)
				}
			}
		}
	})
	l.r.set("cpumodel.flowtable_thrash_ns", ns)
}

func (l *layerPass) ccLayer() {
	ops := l.ops(400_000)
	factories := core.Factories()
	for _, name := range []string{"reno", "cubic", "bbr", "bbr2"} {
		ns, _ := l.bench(ops, func() func() {
			conn := cctest.NewFakeConn()
			mod := factories[name]()
			mod.Init(conn)
			return func() {
				for i := 0; i < ops; i++ {
					mod.OnAck(conn, conn.Ack(2, 10*time.Millisecond, 50*units.Mbps))
				}
			}
		})
		l.r.set("cc."+name+"_onack_ns", ns)
	}
}

func (l *layerPass) pacingLayer() {
	ops := l.ops(400_000)
	ns, _ := l.bench(ops, func() func() {
		p := pacing.New(pacing.Config{Enabled: true})
		const rate = 50 * units.Mbps
		return func() {
			var now time.Duration
			for i := 0; i < ops; i++ {
				segs := p.SKBSegs(rate, seg.MSS)
				if ok, wait := p.CanSendAt(now); !ok {
					now += wait
				}
				now += p.OnSKBSent(now, units.DataSize(segs)*seg.MSS, rate)
			}
		}
	})
	l.r.set("pacing.skb_cycle_ns", ns)
}

func (l *layerPass) tcpLayer() {
	// One connection and receiver over a one-hop 1 Gbps path, on a modelled
	// CPU fast enough to sit under 1% busy, so it never shapes the traffic.
	appBytes := units.DataSize(l.ops(32 << 20))
	segments := int(appBytes / seg.MSS)
	segment := func(loss float64) (float64, float64) {
		return l.bench(segments, func() func() {
			eng, pool := sim.New(1), seg.NewPool()
			cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 500e9)
			path, err := netem.NewPath(eng, netem.PathConfig{
				Hops: []netem.PipeConfig{{Name: "hop", Rate: units.Gbps,
					Delay: 200 * time.Microsecond, LossRate: loss}},
				AckDelay: 200 * time.Microsecond})
			if err != nil {
				l.r.fail("netem.NewPath: %v", err)
				return noop
			}
			path.SetPool(pool)
			conn := tcp.NewConn(0, eng, cpu, path, tcp.Config{AppBytes: appBytes}, core.Factories()["cubic"])
			conn.SetPool(pool)
			rx := tcp.NewReceiver(eng, path, conn)
			demux := tcp.NewDemux()
			demux.SetPool(pool)
			demux.Add(rx)
			path.SetReceiver(demux.Handle)
			return func() {
				conn.Start()
				for rx.GoodBytes() < appBytes && eng.Now() < time.Minute {
					eng.Run(eng.Now() + 10*time.Millisecond)
				}
				if rx.GoodBytes() != appBytes {
					l.r.fail("tcp: delivered %v of %v at loss %v", rx.GoodBytes(), appBytes, loss)
				}
				if busy := cpu.TotalUtilization(); busy > 0.01 {
					l.r.fail("tcp: driver CPU %.3f busy, want under 0.01", busy)
				}
			}
		})
	}
	ns, allocs := segment(0)
	l.r.set("tcp.segment_ns_clean", ns)
	l.r.set("tcp.allocs_per_segment_clean", allocs)
	ns, allocs = segment(0.01)
	l.r.set("tcp.segment_ns_lossy", ns)
	l.r.set("tcp.allocs_per_segment_lossy", allocs)

	// Get, register, unregister, retire, Put: an unstarted connection is
	// quiescent at once, so every cycle after the first recycles the pair.
	ops := l.ops(100_000)
	ns, _ = l.bench(ops, func() func() {
		eng, pool, cpu, path := testbed()
		demux := tcp.NewDemux()
		demux.SetPool(pool)
		path.SetReceiver(demux.Handle)
		conns := tcp.NewConnPool(eng, cpu, nil, path, tcp.Config{}, pool, &tcp.AggStats{},
			cpumodel.NewFlowTable(1024, 32, cpumodel.DefaultCosts()))
		factory := core.Factories()["bbr"]
		return func() {
			for id := 0; id < ops; id++ {
				pc := conns.Get(id, factory)
				demux.Add(pc.Rx)
				demux.Remove(id)
				path.RetireFlow(id)
				conns.Put(pc)
			}
			if st := conns.Stats(); !st.Balanced() || st.Reuses != ops-1 {
				l.r.fail("tcp.ConnPool census after %d cycles: %+v", ops, st)
			}
		}
	})
	l.r.set("tcp.connpool_cycle_ns", ns)
}

func (l *layerPass) telemetryLayer() {
	ops := l.ops(200_000)
	ev := telemetry.Event{Kind: telemetry.KindPacingTimer, Conn: 3, Value: 12.5}
	emit := func(bus func() *telemetry.Bus) float64 {
		ns, _ := l.bench(ops, func() func() {
			b := bus()
			return func() {
				for i := 0; i < ops; i++ {
					b.Emit(ev)
				}
			}
		})
		return ns
	}
	l.r.set("telemetry.emit_off_ns", emit(func() *telemetry.Bus { return nil }))
	newBus := func() *telemetry.Bus { return telemetry.NewBus(sim.New(1), 0) }
	l.r.set("telemetry.emit_on_ns", emit(newBus))

	ns, _ := l.bench(ops, func() func() {
		h := telemetry.NewRegistry().Histogram("conn0/timer_slip_us", telemetry.TimerSlipBounds)
		return func() {
			for i := 0; i < ops; i++ {
				h.Observe(float64(i % 1024))
			}
		}
	})
	l.r.set("telemetry.hist_observe_ns", ns)

	ns, _ = l.bench(ops, func() func() {
		b := newBus()
		for i := 0; i < ops; i++ {
			b.Emit(ev)
		}
		return func() {
			if err := b.WriteJSONL(io.Discard); err != nil {
				l.r.fail("telemetry.WriteJSONL: %v", err)
			}
		}
	})
	l.r.set("telemetry.jsonl_ns_per_event", ns)

	// The DESIGN §6 contract measured on both sides: the mixed_lossy_observed
	// unit at a quarter of its length, observed ÷ unobserved.
	var on, off []float64
	for i := 0; i < ratioUnits; i++ {
		wall, _ := l.timeRun(observedSpec(l.e, l.seed+int64(i), true), false)
		on = append(on, wall)
		wall, _ = l.timeRun(observedSpec(l.e, l.seed+int64(i), false), false)
		off = append(off, wall)
	}
	l.r.set("telemetry.observed_wall_ratio", stats.Median(on)/stats.Median(off))
}

// ratioUnits is how many units each side of a ratio metric runs.
const ratioUnits = 3

// timeRun runs spec at a quarter of its duration as one checked operation
// and returns its wall seconds and digest. An observed run serialises its
// trace inside the timed window, as the workload does.
func (l *layerPass) timeRun(spec core.Spec, lossless bool) (float64, uint64) {
	spec.Duration /= 4
	var u unitResult
	start := time.Now()
	u.run(l.e, spec, lossless, func(res *core.Result) {
		if res.Events != nil {
			if err := res.Events.WriteJSONL(io.Discard); err != nil {
				u.fail("WriteJSONL: %v", err)
			}
		}
	})
	wall := time.Since(start).Seconds()
	l.r.count(u)
	return wall, u.digest
}

func (l *layerPass) checkLayer() {
	// Auditing only reads, so a driver's repetitions share one assembled
	// session, settled past its start-up burst.
	passes := func(ops int, chk *check.Checker) float64 {
		ns, _ := l.bench(ops, func() func() {
			return func() {
				for i := 0; i < ops; i++ {
					chk.CheckNow()
				}
				if err := chk.Err(); err != nil {
					l.r.fail("%v", err)
				}
			}
		})
		return ns
	}
	const conns = 64
	eng, pool, cpu, path := testbed()
	bulk, err := iperf.New(eng, cpu, path, iperf.Config{Conns: conns, Duration: time.Hour,
		CC: core.Factories()["cubic"], Pool: pool})
	if err != nil {
		l.r.fail("iperf.New: %v", err)
		return
	}
	bulk.Start()
	eng.Run(100 * time.Millisecond)
	chk := check.New(eng, "bench check.full_pass", 0)
	for _, c := range bulk.Conns() {
		chk.Watch(c)
	}
	chk.WatchPool(pool, path)
	l.r.set("check.full_pass_ns_per_conn", passes(l.ops(2000), chk)/conns)

	// The churn configuration of core.Run: a live view over 4096 flows,
	// audited 256 at a time.
	eng, pool, cpu, path = testbed()
	live := l.ops(4096)
	churn, err := flows.New(eng, cpu, path,
		iperf.Config{Duration: time.Hour, CC: core.Factories()["cubic"], Pool: pool},
		flows.Config{ArrivalRate: 1, MaxLive: live, InitialFlows: live,
			MiceBytes: 64 * units.MB, MiceSigma: 0.001})
	if err != nil {
		l.r.fail("flows.New: %v", err)
		return
	}
	churn.Start()
	eng.Run(200 * time.Millisecond)
	chk = check.New(eng, "bench check.strided_pass", 0)
	chk.WatchDynamic(churn.Auditables)
	chk.SetAuditStride(256)
	chk.SetHeldAcks(churn.Aggregates().HeldAcks)
	chk.WatchPool(pool, path)
	l.r.set("check.strided_pass_ns", passes(l.ops(200), chk))
}

func (l *layerPass) simnetLayer() {
	// Two procs sleeping in lockstep: every Sleep parks a goroutine and the
	// engine wakes it, which is all the baton handoff does.
	ops := l.ops(100_000)
	ns, _ := l.bench(ops, func() func() {
		eng := sim.New(1)
		n := simnet.New(eng)
		for p := 0; p < 2; p++ {
			n.Go(0, func(proc *simnet.Proc) {
				for i := 0; i < ops/2; i++ {
					if n.Sleep(proc, time.Millisecond) != nil {
						return
					}
				}
			})
		}
		return func() {
			eng.Run(time.Duration(ops/2+1) * time.Millisecond)
			n.Shutdown()
		}
	})
	l.r.set("simnet.sleep_handoff_ns", ns)
}

func (l *layerPass) coreLayer() {
	// A 20-connection run of 1 ms of virtual time is build and teardown only:
	// what every grid point pays before it simulates anything.
	ops := l.ops(400)
	spec := pacedSpec(l.e, l.seed)
	spec.Duration = time.Millisecond
	ns, allocs := l.bench(ops, func() func() {
		return func() {
			for i := 0; i < ops; i++ {
				if _, err := core.Run(spec); err != nil {
					l.r.fail("%v", err)
					return
				}
			}
		}
	})
	l.r.set("core.min_run_us", ns/1e3)
	l.r.set("core.min_run_allocs", allocs)

	ops = l.ops(4000)
	spec = observedSpec(l.e, l.seed, true)
	ns, _ = l.bench(ops, func() func() {
		return func() {
			for i := 0; i < ops; i++ {
				data, err := core.EncodeSpec(spec)
				if err == nil {
					_, err = core.DecodeSpec(data)
				}
				if err != nil {
					l.r.fail("spec codec: %v", err)
					return
				}
			}
		}
	})
	l.r.set("core.spec_codec_us", ns/1e3)

	// The number the sharded-engine audit needs: both bulk units at a quarter
	// of their length, two shards ÷ serial, which must simulate the same.
	var serial, sharded float64
	for _, mk := range []func(*env, int64) core.Spec{pacedSpec, linerateSpec} {
		var one, two []float64
		for i := 0; i < ratioUnits; i++ {
			spec := mk(l.e, l.seed+int64(i))
			wall, want := l.timeRun(spec, true)
			one = append(one, wall)
			spec.Shards = 2
			wall, got := l.timeRun(spec, true)
			two = append(two, wall)
			if got != want {
				l.r.fail("%v seed %d: two shards simulate differently from serial", spec, spec.Seed)
			}
		}
		serial += stats.Median(one)
		sharded += stats.Median(two)
	}
	l.r.set("core.shards2_wall_ratio", sharded/serial)
}

func (l *layerPass) flowsLayer() {
	// Memory only: the 100k-flow unit's wall swings severalfold on first
	// touch of its heap, so it is not timed.
	s := startSampler()
	defer s.close()
	big := &workload{unit: func(e *env, seed int64) (u unitResult) {
		u.run(e, churnSpec(e, seed, 100_000, 2, false), true, nil)
		return u
	}}
	u := measureUnit(big, l.e, l.seed, s)
	l.r.count(u.unitResult)
	l.r.set("flows.heap_kb_per_flow_100k", float64(u.heapGrowth)/1024/float64(u.flows))
}
