package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/netem"
	"mobbr/internal/obs"
	"mobbr/internal/repro"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// A workload is one named set of inputs. Its unit is a fixed piece of
// simulation fully determined by the seed; a run of the workload executes
// units back to back and reports medians over them (see measure.go).
type workload struct {
	Name string
	// Why says which layers the workload loads and which it bypasses; it is
	// the one-line rationale BENCHMARK.json carries.
	Why  string
	unit func(e *env, seed int64) unitResult
}

// Unit sizes are half the sizes the issue measured (one unit ≈ 0.5–0.8 s on
// the reference box, the grid ≈ 2 s) so that a 10 s measuring window holds
// at least a dozen units of every bulk workload and five of the grid.
var workloads = []workload{
	{"bulk_paced",
		"Pixel 4 Low-End, bbr, 20 conns, Ethernet, 50 sim-s/unit: the paper's collapse cell; pacing timers, sim reschedule, cpumodel queueing and bbr OnAck dominate",
		bulkPaced},
	{"bulk_linerate",
		"High-End, cubic, 20 conns, 1 Gbps Ethernet, 6 sim-s/unit: unpaced, so netem.Pipe, seg.Pool, GRO and the tcp ACK path dominate; a pacing change must not move it",
		bulkLinerate},
	{"mixed_lossy_observed",
		"Default CPU, bbr+cubic+bbr2+reno, 8 conns, WiFi, 0.5% loss, checker and all telemetry on, 12 sim-s/unit: SACK/retransmit path, enabled bus, JSONL export",
		mixedLossyObserved},
	{"churn_10k",
		"Low-End, bbr, 10k live flows at 4000 arrivals/s, 4 KB mice, strided audits, 10 sim-s/unit: ConnPool recycle, demux, flow table and GC; the memory-per-flow workload",
		churn10k},
	{"apps_mix",
		"reqrep on Low-End then stream on Default, bbr, 8 conns, 10 sim-s each per unit: simnet baton handoff and apps loops; the only workload that exercises the Go scheduler",
		appsMix},
	{"grid_paper",
		"all 152 points of repro.All() through the resilient runner (2 workers, 0.75 sim-s, 1 seed, journal), then archive write/load/diff/rollup: run build/teardown and codecs",
		gridPaper},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what a unit needs besides its seed.
type env struct {
	// quick divides simulated durations by 20 and trims the grid, for the
	// go-test smoke run.
	quick bool
	// tmp is a scratch directory inside the checkout (grid journal, archive).
	tmp string
	// tr records spans around the calls into each layer; nil outside the
	// traced pass, where span costs nothing.
	tr *tracer
}

func (e *env) dur(simSeconds float64) time.Duration {
	if e.quick {
		simSeconds /= 20
	}
	return time.Duration(simSeconds * float64(time.Second))
}

func noop() {}

// span opens a span under the innermost open one and returns its closer.
func (e *env) span(name string) func() {
	if e.tr == nil {
		return noop
	}
	id := e.tr.begin(name)
	return func() { e.tr.end(id) }
}

// unitResult is what one unit simulated, checked and counted.
type unitResult struct {
	simSeconds float64
	// ops counts operations attempted (one core.Run, or one grid point);
	// failed those that missed any output check.
	ops, failed int
	failures    []string
	// digest folds every simulated statistic of the unit, so a host-side
	// speed-up can be shown to leave the simulation identical.
	digest uint64
	// flows is the unit's peak number of concurrent flows.
	flows int
	c     counters
}

// counters are the per-workload layer counts, summed over the unit's runs.
type counters struct {
	runs                     int
	events                   uint64
	poolGets, poolRecycled   uint64
	cpuUtil, pacingShare     float64 // sums over runs; divide by runs
	fastHits, slowHits       uint64
	pacingTimerEvents        uint64
	retransmits              int64
	connGets, connReuses     int
	flowsDone, flowsRejected int64
	flowsStarted             int64
	appRequests              int64
	mapeSum                  float64
	mapeN                    int
}

func (c *counters) add(o counters) {
	c.runs += o.runs
	c.events += o.events
	c.poolGets += o.poolGets
	c.poolRecycled += o.poolRecycled
	c.cpuUtil += o.cpuUtil
	c.pacingShare += o.pacingShare
	c.fastHits += o.fastHits
	c.slowHits += o.slowHits
	c.pacingTimerEvents += o.pacingTimerEvents
	c.retransmits += o.retransmits
	c.connGets += o.connGets
	c.connReuses += o.connReuses
	c.flowsDone += o.flowsDone
	c.flowsRejected += o.flowsRejected
	c.flowsStarted += o.flowsStarted
	c.appRequests += o.appRequests
	c.mapeSum += o.mapeSum
	c.mapeN += o.mapeN
}

func (u *unitResult) fail(format string, args ...any) {
	u.failed++
	if len(u.failures) < 8 {
		u.failures = append(u.failures, fmt.Sprintf(format, args...))
	}
}

func (u *unitResult) mix(vals ...any) {
	h := fnv.New64a()
	fmt.Fprint(h, u.digest, vals)
	u.digest = h.Sum64()
}

// lineRate is the fastest link any preset has; no run may deliver more. The
// one per cent covers packets already past the bottleneck when the warm-up
// snapshot is taken, which a short run's goodput window then counts.
const lineRate = units.Gbps + units.Gbps/100

// addResult checks one finished run's outputs and folds it into the unit.
// lossless marks runs whose path injects no loss, where a connection the
// transport declared dead is a failure rather than a measured outcome.
func (u *unitResult) addResult(label string, res *core.Result, lossless bool) {
	r := res.Report
	u.mix(res.Processed, int64(r.Goodput), r.Retransmits, r.Lost, r.PathDrops)
	ok := true
	bad := func(format string, args ...any) {
		if ok {
			u.fail(label+": "+format, args...)
		}
		ok = false
	}
	if r.Goodput > lineRate {
		bad("goodput %v above line rate", r.Goodput)
	}
	if lossless && len(r.ConnErrors) > 0 {
		bad("%d dead connections on a lossless path: %v", len(r.ConnErrors), r.ConnErrors[0])
	}
	if p := r.Pool; p.OutstandingPackets != 0 || p.OutstandingAcks != 0 || p.Violations != 0 {
		bad("seg.Pool census unbalanced: %d packets, %d acks, %d violations",
			p.OutstandingPackets, p.OutstandingAcks, p.Violations)
	}
	c := &u.c
	c.runs++
	c.events += res.Processed
	c.poolGets += r.Pool.PacketGets + r.Pool.AckGets
	c.poolRecycled += r.Pool.PacketsRecycled() + r.Pool.AcksRecycled()
	c.cpuUtil += r.CPUUtil
	c.pacingShare += r.CPUBreakdown["pacing_timer"]
	c.pacingTimerEvents += r.PacingTimerEvents
	c.retransmits += r.Retransmits
	conns := res.Spec.Conns
	if a := res.App; a != nil {
		u.mix(a.Completed, a.Canceled)
		c.appRequests += a.Completed
	}
	if f := res.Flows; f != nil {
		u.mix(f.Started, f.Completed, f.Rejected, f.PeakLive)
		if !f.Pool.Balanced() {
			bad("ConnPool census unbalanced: %+v", f.Pool)
		}
		c.fastHits += f.FlowTable.FastHits
		c.slowHits += f.FlowTable.SlowHits
		c.connGets += f.Pool.Gets
		c.connReuses += f.Pool.Reuses
		c.flowsDone += f.Completed
		c.flowsRejected += f.Rejected
		c.flowsStarted += f.Started
		conns = f.PeakLive
	}
	if conns > u.flows {
		u.flows = conns
	}
}

// run executes one spec as one operation. A returned error — validation, a
// tripped budget, or a checker violation when spec.Check is set — fails it.
func (u *unitResult) run(e *env, spec core.Spec, lossless bool, after func(*core.Result)) {
	end := e.span("core.Run")
	res, err := core.Run(spec)
	if err == nil && after != nil {
		after(res)
	}
	end()
	u.ops++
	u.simSeconds += spec.Duration.Seconds()
	if err != nil {
		u.fail("%v", err)
		return
	}
	u.addResult(spec.String(), res, lossless)
}

// pacedSpec and linerateSpec are the two bulk units; the sharding driver in
// layers.go runs them serial and sharded.
func pacedSpec(e *env, seed int64) core.Spec {
	return core.Spec{Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr", Conns: 20,
		Network: core.Ethernet, Duration: e.dur(50), Seed: seed}
}

func linerateSpec(e *env, seed int64) core.Spec {
	return core.Spec{CPU: device.HighEnd, CC: "cubic", Conns: 20,
		Network: core.Ethernet, Duration: e.dur(6), Seed: seed}
}

func bulkPaced(e *env, seed int64) (u unitResult) {
	u.run(e, pacedSpec(e, seed), true, nil)
	return u
}

func bulkLinerate(e *env, seed int64) (u unitResult) {
	u.run(e, linerateSpec(e, seed), true, nil)
	return u
}

// observedSpec is the mixed_lossy_observed unit; the telemetry driver in
// layers.go runs it with observation on and off.
func observedSpec(e *env, seed int64, observed bool) core.Spec {
	s := core.Spec{CPU: device.Default, CC: "bbr,cubic,bbr2,reno", Conns: 8,
		Network: core.WiFi, TC: netem.TC{Loss: 0.005}, Interval: time.Second,
		Duration: e.dur(12), Seed: seed}
	if observed {
		s.Check = true
		s.Telemetry = telemetry.Config{Trace: true, Metrics: true, Profile: true}
	}
	return s
}

func mixedLossyObserved(e *env, seed int64) (u unitResult) {
	u.run(e, observedSpec(e, seed, true), false, func(res *core.Result) {
		// Serialising the trace is part of what an observed run costs.
		if err := res.Events.WriteJSONL(io.Discard); err != nil {
			u.fail("WriteJSONL: %v", err)
		}
		if res.Events.Dropped() > 0 {
			u.fail("telemetry bus dropped %d events", res.Events.Dropped())
		}
	})
	return u
}

func churnSpec(e *env, seed int64, live int, simSeconds float64, check bool) core.Spec {
	if e.quick {
		live /= 20
	}
	return core.Spec{CPU: device.LowEnd, CC: "bbr", Network: core.Ethernet,
		Check: check, Duration: e.dur(simSeconds), Seed: seed,
		Flows: &flows.Config{ArrivalRate: 0.4 * float64(live), MaxLive: live,
			InitialFlows: live, MiceBytes: 4 * units.KB}}
}

func churn10k(e *env, seed int64) (u unitResult) {
	u.run(e, churnSpec(e, seed, 10_000, 10, true), true, nil)
	return u
}

func appsMix(e *env, seed int64) (u unitResult) {
	u.run(e, core.Spec{CPU: device.LowEnd, CC: "bbr", Conns: 8, Duration: e.dur(10),
		Seed: seed, Workload: apps.Workload{Kind: apps.KindReqRep}}, true, nil)
	u.run(e, core.Spec{CPU: device.Default, CC: "bbr", Conns: 8, Duration: e.dur(10),
		Seed: seed, Workload: apps.Workload{Kind: apps.KindStream}}, true, nil)
	return u
}

// gridWorkers is fixed, not nproc, so numbers compare across boxes.
const gridWorkers = 2

func gridExperiments(e *env) []repro.Experiment {
	if e.quick {
		return []repro.Experiment{repro.Figure2(), repro.Apps()}
	}
	return repro.All()
}

// gridPaper is what users actually run: every paper experiment as many short
// runs through the resilient runner, then the archive pipeline over the rows.
// One grid point is one operation; a pipeline stage that errors is one too.
func gridPaper(e *env, seed int64) (u unitResult) {
	dur := e.dur(0.75)
	dir, err := os.MkdirTemp(e.tmp, "grid")
	if err != nil {
		u.ops++
		u.fail("grid scratch dir: %v", err)
		return u
	}
	defer os.RemoveAll(dir)
	stage := func(name string, fn func() error) bool {
		end := e.span(name)
		err := fn()
		end()
		if err != nil {
			u.ops++
			u.fail("%s: %v", name, err)
		}
		return err == nil
	}
	archive := filepath.Join(dir, "archive")
	for _, ex := range gridExperiments(e) {
		pts := append([]repro.Point(nil), ex.Points...)
		for i := range pts {
			pts[i].Spec.Seed = seed
		}
		ex.Points = pts
		opts := repro.RunOpts{Workers: gridWorkers, Dur: dur, Seeds: 1,
			Journal: filepath.Join(dir, ex.ID+".jsonl")}
		var rows []repro.Row
		ok := stage("repro.run_grid", func() (err error) {
			if e.tr != nil {
				opts.Progress = e.tr.pointObserver()
			}
			rows, err = repro.RunExperimentResilient(ex, opts)
			return err
		})
		if !ok {
			continue
		}
		for _, row := range rows {
			u.ops++
			u.simSeconds += dur.Seconds()
			label := ex.ID + "/" + row.Point.Label
			switch {
			case row.Failure != nil:
				u.fail("%s: FAILED %s: %s", label, row.Failure.Class, row.Failure.Msg)
			case row.Sample == nil:
				u.fail("%s: row carries no result", label)
			default:
				u.addResult(label, row.Sample, false)
				if paper := row.Point.PaperMbps; paper > 0 {
					u.c.mapeSum += math.Abs(row.GoodputMbps-paper) / paper
					u.c.mapeN++
				}
			}
		}
		var run *obs.Run
		ok = stage("repro.build_archive", func() (err error) {
			run, err = repro.BuildExperimentRun(ex, rows, repro.ArchiveOpts{Dur: dur, Seeds: 1})
			return err
		})
		if ok {
			stage("obs.write_run", func() error {
				return obs.WriteRun(filepath.Join(archive, ex.ID), run.Manifest, run.Points)
			})
		}
	}
	var loaded *obs.Archive
	if !stage("obs.load_archive", func() (err error) {
		loaded, err = obs.LoadArchive(archive)
		return err
	}) {
		return u
	}
	stage("obs.diff", func() error {
		deltas, sum, err := obs.Diff(loaded, loaded, obs.DiffOpts{})
		if err == nil && (len(deltas) != 0 || sum.Regressed != 0 || sum.Unmatched != 0) {
			err = fmt.Errorf("archive differs from itself: %d deltas, %+v", len(deltas), sum)
		}
		return err
	})
	stage("obs.rollup", func() error {
		for _, id := range loaded.Order {
			run := loaded.Runs[id]
			points := 0
			for _, cell := range obs.Rollup(run) {
				points += cell.Points
			}
			if points != len(run.Points) {
				return fmt.Errorf("%s: rollup covers %d of %d points", id, points, len(run.Points))
			}
		}
		return nil
	})
	if u.flows == 0 {
		u.flows = 1
	}
	// Two points run at once, so twice the largest point is resident.
	u.flows *= gridWorkers
	return u
}
