package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"mobbr/internal/stats"
)

// Run shape. A run of a workload is two set-ups, then timed units back to
// back, one at a time, in one process, until the measuring window is used up,
// then two more set-ups. A set-up is a cold unit: released heap, spec
// construction, first run. Unit i simulates seed+i; the set-up units and the
// last timed unit share the base seed, so the simulator's determinism is
// checked in every run. Every reported rate is the median over the timed
// units; setup_s is the fastest set-up, for the reason given in runEndToEnd.
const (
	setupReps     = 2 // before the timed units, and again after them
	minTimedUnits = 3
	sampleEvery   = 2 * time.Millisecond
)

// metric is one reported number. Q1, Q3 and N describe the per-unit samples
// behind a median; they are absent on counts and single measurements.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string   `json:"name"`
	Seed      int64    `json:"seed"`
	Units     int      `json:"units"`
	SimDigest string   `json:"sim_digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// FailedShare is failed ÷ attempted; the command exits non-zero when it
	// is above zero.
	FailedShare float64           `json:"failed_share"`
	Metrics     map[string]metric `json:"metrics"`
}

func (r *workloadResult) count(u unitResult) {
	r.Attempted += u.ops
	r.Failed += u.failed
	for _, f := range u.failures {
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, f)
		}
	}
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric under its contract name; the unit comes from defs.go.
func (r *workloadResult) set(name string, value float64) {
	d, ok := def(name)
	if !ok {
		panic("bench: metric " + name + " is not in defs.go")
	}
	r.Metrics[name] = metric{Value: value, Unit: d.Unit}
}

// setSamples records value as the statistic of the samples xs, with their
// quartiles and count beside it.
func (r *workloadResult) setSamples(name string, value float64, xs []float64) {
	r.set(name, value)
	m := r.Metrics[name]
	m.Q1, m.Q3, m.N = stats.Percentile(xs, 25), stats.Percentile(xs, 75), len(xs)
	r.Metrics[name] = m
}

// setMedian records the median of per-unit samples.
func (r *workloadResult) setMedian(name string, xs []float64) {
	r.setSamples(name, stats.Median(xs), xs)
}

// sampler watches the process's memory from one goroutine.
type sampler struct {
	stop, done chan struct{}

	mu         sync.Mutex
	buf        []metrics.Sample
	peakMapped uint64 // total mapped minus released, max over the run
	peakHeap   uint64 // bytes in heap objects, max since resetHeap
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}),
		buf: []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.buf)
	if mapped := s.buf[0].Value.Uint64() - s.buf[1].Value.Uint64(); mapped > s.peakMapped {
		s.peakMapped = mapped
	}
	if heap := s.buf[2].Value.Uint64(); heap > s.peakHeap {
		s.peakHeap = heap
	}
}

func (s *sampler) resetHeap() {
	s.mu.Lock()
	s.peakHeap = 0
	s.mu.Unlock()
}

func (s *sampler) peaks() (mapped, heap uint64) {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakMapped, s.peakHeap
}

// close stops the sampling goroutine and waits for it.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the CPU time the runtime attributes to garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// unitSample is one measured unit: the host cost beside what it simulated.
type unitSample struct {
	unitResult
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	// heapGrowth is the peak sampled heap above the post-GC baseline.
	heapGrowth uint64
	cpu, gcCPU float64
}

// measureUnit collects, then runs one unit and measures it from outside.
func measureUnit(w *workload, e *env, seed int64, s *sampler) unitSample {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.resetHeap()
	cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
	start := time.Now()
	u := w.unit(e, seed)
	wall := time.Since(start)
	cpu1, gc1 := cpuSeconds(), gcCPUSeconds()
	_, heap := s.peaks()
	runtime.ReadMemStats(&after)
	us := unitSample{unitResult: u, wall: wall,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		cpu:        cpu1 - cpu0, gcCPU: gc1 - gc0}
	if heap > before.HeapAlloc {
		us.heapGrowth = heap - before.HeapAlloc
	}
	return us
}

func digestString(d uint64) string { return fmt.Sprintf("%016x", d) }

// checkDigest fails the run when a unit of the base seed disagrees with the
// first one: the simulator must be deterministic per seed.
func (r *workloadResult) checkDigest(what string, u unitResult) {
	if got := digestString(u.digest); got != r.SimDigest {
		r.fail("%s: sim_digest %s differs from the first unit's %s at the same seed", what, got, r.SimDigest)
	}
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(w *workload, e *env, seed int64, window time.Duration) workloadResult {
	r := workloadResult{Name: w.Name, Seed: seed, Metrics: map[string]metric{}}
	s := startSampler()
	defer s.close()

	reps, minUnits := setupReps, minTimedUnits
	if e.quick {
		reps, minUnits = 1, 2
	}
	var setups []float64
	setUp := func() {
		for i := 0; i < reps; i++ {
			debug.FreeOSMemory()
			start := time.Now()
			u := measureUnit(w, e, seed, s)
			setups = append(setups, time.Since(start).Seconds())
			r.count(u.unitResult)
			if r.SimDigest == "" {
				r.SimDigest = digestString(u.digest)
			} else {
				r.checkDigest("set-up", u.unitResult)
			}
		}
	}
	setUp()

	var walls, wallMs, events, allocs, allocKB, heapKB []float64
	begin := time.Now()
	for n := 0; ; n++ {
		unitSeed := seed + int64(n) + 1
		// The last unit is the one after which the window has no room for
		// another; it replays the base seed.
		last := n+1 >= minUnits && (e.quick ||
			time.Since(begin)+2*time.Duration(stats.Median(walls)) > window)
		if last {
			unitSeed = seed
		}
		u := measureUnit(w, e, unitSeed, s)
		r.count(u.unitResult)
		if last {
			r.checkDigest("last unit", u.unitResult)
		}
		walls = append(walls, float64(u.wall))
		wallMs = append(wallMs, float64(u.wall.Nanoseconds())/1e6/u.simSeconds)
		events = append(events, float64(u.c.events)/u.simSeconds)
		allocs = append(allocs, float64(u.mallocs)/u.simSeconds)
		allocKB = append(allocKB, float64(u.allocBytes)/1024/u.simSeconds)
		heapKB = append(heapKB, float64(u.heapGrowth)/1024/float64(u.flows))
		if last {
			break
		}
	}
	setUp()
	mapped, _ := s.peaks()

	r.Units = len(walls)
	r.setMedian("wall_ms_per_sim_s", wallMs)
	r.setMedian("events_per_sim_s", events)
	r.setMedian("allocs_per_sim_s", allocs)
	r.setMedian("alloc_kb_per_sim_s", allocKB)
	r.set("peak_mem_mb", float64(mapped)/(1<<20))
	r.setMedian("heap_kb_per_flow", heapKB)
	// The box has a slow regime that lasts from a second to a minute (see
	// README.md). The median of a handful of set-ups lands in whichever
	// regime held the majority, so the medians of two sets of runs drift
	// apart by up to 36%; the fastest of four, taken 10 s apart, lands in
	// the quiet regime unless the slow one outlasts the run.
	r.setSamples("setup_s", stats.Percentile(setups, 0), setups)
	return r
}

// tracedUnits is how many units the traced pass runs untraced (the baseline
// for trace.overhead_pct and the source of the per-workload counts) and then
// again under spans and a CPU profile.
const tracedUnits = 3

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces one workload's own per-layer metrics: counts from
// untraced units, then the same units again under spans and a CPU profile
// whose samples are attributed to packages.
func runTraced(w *workload, e *env, seed int64, tr *tracer) workloadResult {
	r := workloadResult{Name: w.Name, Seed: seed, Metrics: map[string]metric{}}
	s := startSampler()
	defer s.close()

	k := tracedUnits
	if e.quick {
		k = 1
	}
	warm := measureUnit(w, e, seed, s)
	r.count(warm.unitResult)
	r.SimDigest = digestString(warm.digest)

	var (
		c                     counters
		sim, wall, cpu, gcCPU float64
		plainMs, tracedMs     []float64
		digests               []uint64
	)
	for i := 0; i < k; i++ {
		u := measureUnit(w, e, seed+int64(i), s)
		r.count(u.unitResult)
		if i == 0 {
			r.checkDigest("untraced unit", u.unitResult)
		}
		c.add(u.c)
		sim += u.simSeconds
		wall += u.wall.Seconds()
		cpu += u.cpu
		gcCPU += u.gcCPU
		plainMs = append(plainMs, float64(u.wall.Nanoseconds())/1e6)
		digests = append(digests, u.digest)
	}

	te := *e
	te.tr = tr
	tr.workload = w.Name
	first := len(tr.spans)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.fail("cpu profile: %v", err)
	}
	root := tr.begin("workload")
	for i := 0; i < k; i++ {
		tr.unit = i
		id := tr.begin("unit")
		u := measureUnit(w, &te, seed+int64(i), s)
		tr.end(id)
		r.count(u.unitResult)
		if u.digest != digests[i] {
			r.fail("traced unit %d: sim_digest %s differs from the untraced %s",
				i, digestString(u.digest), digestString(digests[i]))
		}
		tracedMs = append(tracedMs, float64(u.wall.Nanoseconds())/1e6)
	}
	tr.end(root)
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		r.fail("%v", err)
	}

	r.set("core.wall_ms_per_sim_s", wall*1e3/sim)
	r.set("core.ns_per_event", ratio(wall*1e9, float64(c.events)))
	r.set("core.cpu_ms_per_sim_s", cpu*1e3/sim)
	r.set("core.gc_cpu_share", ratio(gcCPU, cpu))
	r.set("seg.recycle_ratio", ratio(float64(c.poolRecycled), float64(c.poolGets)))
	r.set("cpumodel.util", ratio(c.cpuUtil, float64(c.runs)))
	r.set("cpumodel.pacing_timer_share", ratio(c.pacingShare, float64(c.runs)))
	r.set("cpumodel.fast_share", ratio(float64(c.fastHits), float64(c.fastHits+c.slowHits)))
	r.set("pacing.timer_events_per_sim_s", float64(c.pacingTimerEvents)/sim)
	r.set("tcp.retransmits_per_sim_s", float64(c.retransmits)/sim)
	r.set("tcp.connpool_reuse_ratio", ratio(float64(c.connReuses), float64(c.connGets)))
	r.set("flows.completed_per_sim_s", float64(c.flowsDone)/sim)
	r.set("flows.rejected_share", ratio(float64(c.flowsRejected), float64(c.flowsStarted+c.flowsRejected)))
	r.set("apps.requests_per_sim_s", float64(c.appRequests)/sim)
	r.set("repro.paper_mape_pct", 100*ratio(c.mapeSum, float64(c.mapeN)))

	// Span totals are per traced unit. Only grid_paper opens these spans;
	// elsewhere they are 0.
	mine := tr.spans[first:]
	perUnit := func(name string) float64 {
		ms := 0.0
		for _, d := range spanMillis(mine, name) {
			ms += d
		}
		return ms / 1e3 / float64(k)
	}
	grid, points := perUnit("repro.run_grid"), spanMillis(mine, "point")
	r.set("repro.run_grid_s", grid)
	r.set("repro.point_wall_ms_p50", stats.Median(points))
	r.set("repro.point_wall_ms_max", stats.Percentile(points, 100))
	idle := 0.0
	if grid > 0 {
		idle = 1 - perUnit("point")/(gridWorkers*grid)
	}
	r.set("repro.worker_idle_share", idle)
	r.set("repro.build_archive_s", perUnit("repro.build_archive"))
	r.set("obs.write_run_s", perUnit("obs.write_run"))
	r.set("obs.load_archive_s", perUnit("obs.load_archive"))
	r.set("obs.diff_s", perUnit("obs.diff"))
	r.set("obs.rollup_s", perUnit("obs.rollup"))

	shares := hostShares(samples)
	for _, b := range hostBuckets {
		r.set("host.share_"+b, shares[b])
	}
	r.set("trace.overhead_pct", 100*(stats.Median(tracedMs)/stats.Median(plainMs)-1))
	r.Units = 2 * k
	return r
}
