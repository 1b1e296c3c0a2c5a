// Command bench is mobbr's performance contract: one command that runs six
// deterministic workloads through the simulator's public entry points, checks
// their outputs, and prints every metric by name with its unit. BENCHMARK.json
// at the repository root describes it to the gate; README.md in this
// directory states method, spreads and what is not claimed.
//
//	go run ./bench -seed 1 -out run.json        # end-to-end, all six workloads
//	go run ./bench -layers                      # per-layer drivers only
//	go run ./bench -trace 1 -workload churn_10k # per-layer metrics of one workload
//	go run ./bench -compare a.json b.json       # before/after table
//
// Every number is host time or host memory unless its name says sim.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// buildDir holds everything the benchmark writes unless told otherwise; the
// root .gitignore names it.
const buildDir = ".bench_build"

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       envBlock         `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// envBlock records the box, so numbers are never compared across boxes by
// accident.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

func readEnv() envBlock {
	env := envBlock{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all six)")
		seed    = fs.Int64("seed", 1, "base seed; unit i simulates seed+i")
		seconds = fs.Float64("seconds", 10, "measuring window per workload, in seconds")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics (layer drivers, then each workload under spans and a CPU profile) instead of end-to-end ones")
		layers  = fs.Bool("layers", false, "run only the per-layer drivers")
		quick   = fs.Bool("quick", false, "smoke sizes: two timed units, simulated seconds ÷20, grid limited to fig2+apps")
		out     = fs.String("out", "", "write the result as JSON to this file")
		spans   = fs.String("spans", buildDir+"/spans.jsonl", "with -trace 1, write the spans as JSON lines to this file")
		compare = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two result files")
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return usage("%v", err)
		}
		return 0
	}
	if fs.NArg() != 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace takes 0 or 1")
	}
	if *seconds <= 0 {
		return usage("-seconds must be positive")
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return usage("unknown workload %q", *name)
		}
		selected = []workload{*w}
	}
	if *layers {
		selected = nil
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return usage("%v", err)
	}
	tmp, err := os.MkdirTemp(buildDir, "run")
	if err != nil {
		return usage("%v", err)
	}
	defer os.RemoveAll(tmp)
	e := &env{quick: *quick, tmp: tmp}
	window := time.Duration(*seconds * float64(time.Second))
	file := resultFile{Env: readEnv(), Seed: *seed, Seconds: *seconds, Quick: *quick}

	record := func(r workloadResult) {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
		printResult(stdout, r)
		file.Workloads = append(file.Workloads, r)
	}
	if *layers || *trace == 1 {
		record(runLayers(e, *seed))
	}
	tr := newTracer()
	for i := range selected {
		runtime.GC()
		debug.FreeOSMemory()
		if *trace == 1 {
			record(runTraced(&selected[i], e, *seed, tr))
		} else {
			record(runEndToEnd(&selected[i], e, *seed, window))
		}
	}
	if *trace == 1 {
		if err := tr.writeJSONL(*spans); err != nil {
			return usage("spans: %v", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), *spans)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return usage("-out: %v", err)
		}
	}
	return printSummary(stdout, file.Workloads)
}

// printResult prints one workload's metrics by name, in contract order.
func printResult(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "== %s seed=%d units=%d sim_digest=%s attempted=%d failed=%d failed_share=%g\n",
		r.Name, r.Seed, r.Units, r.SimDigest, r.Attempted, r.Failed, r.FailedShare)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, d := range allDefs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %14.6g %-9s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g n=%d", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintln(w)
	}
}

// printSummary prints the machine-readable last line, which holds the gated
// metrics only, and returns the exit code: non-zero when any operation failed. With one workload selected the
// metrics carry their contract names (the layer drivers' beside the traced
// workload's own); with several, each is prefixed by its workload.
func printSummary(w io.Writer, results []workloadResult) int {
	type slim struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]slim `json:"metrics"`
	}{Metrics: map[string]slim{}}
	selected := 0
	for _, r := range results {
		if r.Name != "layers" {
			selected++
		}
	}
	prefixed := selected > 1
	for _, r := range results {
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		for name, m := range r.Metrics {
			if d, _ := def(name); d.Ungated {
				continue
			}
			if prefixed {
				name = r.Name + "." + name
			}
			summary.Metrics[name] = slim{m.Value, m.Unit}
		}
	}
	summary.Correct = summary.Failed == 0
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !summary.Correct {
		return 1
	}
	return 0
}
