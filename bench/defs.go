package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the gated end-to-end metrics and the per-layer ones
// with the same names, units, directions and bounds; bench_test.go fails when
// the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and, for a gated metric, the gate)
	// calls it a regression. Per-layer metrics carry no bound.
	Bound float64
	// Ungated marks an end-to-end metric that is printed, written to -out and
	// judged by -compare, but kept out of BENCHMARK.json and the result
	// line, because one run on a shared box cannot measure it steadily
	// enough for the gate.
	Ungated bool
}

// endToEnd is what a user of the simulator sees: how long a simulated second
// takes on the host, how many events and allocations it costs, and how much
// memory it holds. Every value is host time or host memory except
// events_per_sim_s, which is a count of simulated events and exact per seed.
//
// Each gated bound is at least three times the run-to-run spread measured on
// the reference box (README.md has the table). wall_ms_per_sim_s is the
// exception that made it ungated: a neighbour on the shared box slows whole
// runs by 1.4× for a minute at a time, so ten runs spread by 5% in one
// sitting and 37% in the next, and no statistic of one run's units (median,
// quartile, minimum, trimmed mean; all were tried) or calibration kernel
// brings that under the 25% the gate allows. setup_s, which the contract
// requires and judges by medians only, is a cold unit's wall time and so
// still guards a slowdown beyond its bound.
var endToEnd = []metricDef{
	{Name: "wall_ms_per_sim_s", Unit: "ms/sim_s", Better: "lower", Bound: 0.25, Ungated: true},
	{Name: "events_per_sim_s", Unit: "1/sim_s", Better: "lower", Bound: 0.02},
	{Name: "allocs_per_sim_s", Unit: "1/sim_s", Better: "lower", Bound: 0.03},
	{Name: "alloc_kb_per_sim_s", Unit: "KB/sim_s", Better: "lower", Bound: 0.03},
	{Name: "peak_mem_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "heap_kb_per_flow", Unit: "KB/flow", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// gated returns the end-to-end metrics BENCHMARK.json lists.
func gated() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if !d.Ungated {
			out = append(out, d)
		}
	}
	return out
}

// perLayer lists every per-layer metric the -layers and -trace passes emit.
// A name without a workload-specific value on some workload (the grid spans
// outside grid_paper, the flow counters outside churn_10k) is emitted as 0
// there, so that every run prints every name.
var perLayer = []metricDef{
	// sim: the event queue. 1024 events stay pending in every driver.
	{Name: "sim.schedule_pop_near_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_pop_mid_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_pop_far_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedulep_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_reschedule_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_stop_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.ring_ns_per_event_shards1", Unit: "ns", Better: "lower"},
	{Name: "sim.ring_ns_per_event_shards2", Unit: "ns", Better: "lower"},
	// netem: one hop and the Ethernet preset.
	{Name: "netem.pipe_pkt_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.pipe_drop_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.path_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.allocs_per_pkt", Unit: "count", Better: "lower"},
	// seg: the packet/ACK recycler.
	{Name: "seg.packet_getput_ns", Unit: "ns", Better: "lower"},
	{Name: "seg.ack_getput_ns", Unit: "ns", Better: "lower"},
	{Name: "seg.poolset_rebalance_ns", Unit: "ns", Better: "lower"},
	{Name: "seg.recycle_ratio", Unit: "ratio", Better: "higher"},
	// cpumodel: the modelled phone core and the flow table.
	{Name: "cpumodel.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "cpumodel.submitp_ns", Unit: "ns", Better: "lower"},
	{Name: "cpumodel.flowtable_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cpumodel.flowtable_thrash_ns", Unit: "ns", Better: "lower"},
	{Name: "cpumodel.util", Unit: "ratio", Better: "lower"},
	{Name: "cpumodel.pacing_timer_share", Unit: "ratio", Better: "lower"},
	{Name: "cpumodel.fast_share", Unit: "ratio", Better: "higher"},
	// cc: one OnAck per op against cctest.FakeConn.
	{Name: "cc.reno_onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.cubic_onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.bbr_onack_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.bbr2_onack_ns", Unit: "ns", Better: "lower"},
	// pacing.
	{Name: "pacing.skb_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "pacing.timer_events_per_sim_s", Unit: "1/sim_s", Better: "lower"},
	// tcp: one Conn and Receiver over a one-hop path.
	{Name: "tcp.segment_ns_clean", Unit: "ns", Better: "lower"},
	{Name: "tcp.segment_ns_lossy", Unit: "ns", Better: "lower"},
	{Name: "tcp.allocs_per_segment_clean", Unit: "count", Better: "lower"},
	{Name: "tcp.allocs_per_segment_lossy", Unit: "count", Better: "lower"},
	{Name: "tcp.connpool_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.retransmits_per_sim_s", Unit: "1/sim_s", Better: "lower"},
	{Name: "tcp.connpool_reuse_ratio", Unit: "ratio", Better: "higher"},
	// telemetry: the bus off (nil) and on.
	{Name: "telemetry.emit_off_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.emit_on_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.jsonl_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "telemetry.observed_wall_ratio", Unit: "ratio", Better: "lower"},
	// check.
	{Name: "check.full_pass_ns_per_conn", Unit: "ns", Better: "lower"},
	{Name: "check.strided_pass_ns", Unit: "ns", Better: "lower"},
	// flows.
	{Name: "flows.completed_per_sim_s", Unit: "1/sim_s", Better: "higher"},
	{Name: "flows.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "flows.heap_kb_per_flow_100k", Unit: "KB/flow", Better: "lower"},
	// simnet and apps.
	{Name: "simnet.sleep_handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.requests_per_sim_s", Unit: "1/sim_s", Better: "higher"},
	// core: whole runs.
	{Name: "core.wall_ms_per_sim_s", Unit: "ms/sim_s", Better: "lower"},
	{Name: "core.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.cpu_ms_per_sim_s", Unit: "ms/sim_s", Better: "lower"},
	{Name: "core.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "core.min_run_us", Unit: "us", Better: "lower"},
	{Name: "core.min_run_allocs", Unit: "count", Better: "lower"},
	{Name: "core.spec_codec_us", Unit: "us", Better: "lower"},
	{Name: "core.shards2_wall_ratio", Unit: "ratio", Better: "lower"},
	// repro and obs: spans of the traced grid_paper units.
	{Name: "repro.run_grid_s", Unit: "s", Better: "lower"},
	{Name: "repro.point_wall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "repro.point_wall_ms_max", Unit: "ms", Better: "lower"},
	{Name: "repro.worker_idle_share", Unit: "ratio", Better: "lower"},
	{Name: "repro.build_archive_s", Unit: "s", Better: "lower"},
	{Name: "repro.paper_mape_pct", Unit: "%", Better: "lower"},
	{Name: "obs.write_run_s", Unit: "s", Better: "lower"},
	{Name: "obs.load_archive_s", Unit: "s", Better: "lower"},
	{Name: "obs.diff_s", Unit: "s", Better: "lower"},
	{Name: "obs.rollup_s", Unit: "s", Better: "lower"},
	// host-time attribution from the CPU profile of the traced units.
	{Name: "host.share_sim", Unit: "ratio", Better: "lower"},
	{Name: "host.share_tcp", Unit: "ratio", Better: "lower"},
	{Name: "host.share_netem", Unit: "ratio", Better: "lower"},
	{Name: "host.share_cpumodel", Unit: "ratio", Better: "lower"},
	{Name: "host.share_cc", Unit: "ratio", Better: "lower"},
	{Name: "host.share_seg", Unit: "ratio", Better: "lower"},
	{Name: "host.share_pacing", Unit: "ratio", Better: "lower"},
	{Name: "host.share_telemetry", Unit: "ratio", Better: "lower"},
	{Name: "host.share_check", Unit: "ratio", Better: "lower"},
	{Name: "host.share_flows", Unit: "ratio", Better: "lower"},
	{Name: "host.share_simnet_apps", Unit: "ratio", Better: "lower"},
	{Name: "host.share_iperf_core", Unit: "ratio", Better: "lower"},
	{Name: "host.share_repro_obs", Unit: "ratio", Better: "lower"},
	{Name: "host.share_runtime_gc", Unit: "ratio", Better: "lower"},
	{Name: "host.share_runtime_sched", Unit: "ratio", Better: "lower"},
	{Name: "host.share_runtime_other", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// allDefs is every metric the benchmark can report, in printing order.
var allDefs = append(append([]metricDef(nil), endToEnd...), perLayer...)

// def returns the definition of a metric by name.
func def(name string) (metricDef, bool) {
	for _, d := range allDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
