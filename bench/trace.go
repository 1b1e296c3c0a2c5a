package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded from the benchmark's own
// files around the calls into each layer: workload → unit → core.Run, or
// unit → repro.run_grid → point, then the archive stages. Spans of one unit
// share the workload and unit identifiers.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Unit     int    `json:"unit"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. The benchmark's own
// goroutine opens and closes spans as a stack; grid workers open point spans
// under an explicit parent.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	stack    []int
	workload string
	unit     int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Unit: t.unit, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// begin opens a span under the innermost open span of the caller's stack.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.open(name, parent)
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned, which must be the innermost open one.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// pointObserver returns a repro.Observer that records one span per grid
// point under the innermost open span (the repro.run_grid stage).
func (t *tracer) pointObserver() *pointObserver {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &pointObserver{t: t, parent: t.stack[len(t.stack)-1], open: map[int]int{}}
}

type pointObserver struct {
	t      *tracer
	parent int
	open   map[int]int // point index → span id; guarded by t.mu
}

func (o *pointObserver) BeginExperiment(string, int) {}

func (o *pointObserver) PointStart(_, index int, _ string) {
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.open[index] = o.t.open("point", o.parent)
}

func (o *pointObserver) PointDone(_, index int, _ uint64, _ bool) {
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	if id, ok := o.open[index]; ok {
		o.t.spans[id-1].EndNs = time.Since(o.t.t0).Nanoseconds()
	}
}

// spanMillis lists the durations of the spans with the given name.
func spanMillis(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostBuckets are the host.share_* suffixes; every CPU-profile sample lands
// in exactly one, so the shares sum to 1.
var hostBuckets = []string{"sim", "tcp", "netem", "cpumodel", "cc", "seg", "pacing",
	"telemetry", "check", "flows", "simnet_apps", "iperf_core", "repro_obs",
	"runtime_gc", "runtime_sched", "runtime_other"}

// pkgBucket maps a mobbr/internal package (first path element after
// internal/) to its bucket.
var pkgBucket = map[string]string{
	"sim": "sim", "tcp": "tcp", "netem": "netem", "seg": "seg", "pacing": "pacing",
	"cpumodel": "cpumodel", "device": "cpumodel",
	"cc": "cc", "mastermod": "cc",
	"telemetry": "telemetry", "trace": "telemetry", "profiling": "telemetry",
	"check": "check", "flows": "flows",
	"simnet": "simnet_apps", "apps": "simnet_apps",
	"iperf": "iperf_core", "core": "iperf_core", "stats": "iperf_core",
	"fairness": "iperf_core", "units": "iperf_core", "faults": "iperf_core",
	"mobility": "iperf_core",
	"repro":    "repro_obs", "obs": "repro_obs",
}

// funcPackage returns the import path of the package a profile function name
// belongs to: "mobbr/internal/cc/bbr.(*BBR).OnAck" → "mobbr/internal/cc/bbr".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// runtimeBucket splits a sample whose leaf is in the runtime by what its
// stack shows the runtime was doing.
func runtimeBucket(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.Contains(fn, "sweep"),
			strings.HasPrefix(fn, "runtime.scanobject"), strings.HasPrefix(fn, "runtime.markroot"),
			strings.HasPrefix(fn, "runtime.wbBufFlush"):
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.schedule"), strings.HasPrefix(fn, "runtime.findRunnable"),
			strings.HasPrefix(fn, "runtime.park_m"), strings.HasPrefix(fn, "runtime.gopark"),
			strings.HasPrefix(fn, "runtime.goready"), strings.HasPrefix(fn, "runtime.ready"),
			strings.HasPrefix(fn, "runtime.mcall"), strings.HasPrefix(fn, "runtime.chansend"),
			strings.HasPrefix(fn, "runtime.chanrecv"), strings.HasPrefix(fn, "runtime.selectgo"),
			strings.HasPrefix(fn, "runtime.newproc"), strings.HasPrefix(fn, "runtime.goexit0"),
			strings.HasPrefix(fn, "runtime.futex"), strings.HasPrefix(fn, "runtime.notesleep"),
			strings.HasPrefix(fn, "runtime.notewakeup"), strings.HasPrefix(fn, "runtime.wakep"),
			strings.HasPrefix(fn, "runtime.startm"), strings.HasPrefix(fn, "runtime.stopm"):
			return "runtime_sched"
		}
	}
	return "runtime_other"
}

// bucketOf attributes one sample. A runtime leaf is split gc/sched/other; a
// mobbr leaf goes to its package's bucket; any other leaf (math/rand, sort,
// encoding/json, syscall …) is charged to the nearest mobbr caller on its
// stack, and to runtime_other when there is none (the benchmark's own
// sampler and profile writer).
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "runtime_other"
	}
	if isRuntime(funcPackage(stack[0])) {
		return runtimeBucket(stack)
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(funcPackage(fn), "mobbr/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if b, ok := pkgBucket[rest]; ok {
			return b
		}
	}
	return "runtime_other"
}

// hostShares buckets a CPU profile's samples and returns each bucket's share
// of the profile's total, keyed by bucket name. An empty profile (a unit too
// short to be sampled) is charged whole to runtime_other so the shares still
// sum to 1.
func hostShares(samples []profSample) map[string]float64 {
	shares := make(map[string]float64, len(hostBuckets))
	var total float64
	for _, s := range samples {
		shares[bucketOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return map[string]float64{"runtime_other": 1}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}
