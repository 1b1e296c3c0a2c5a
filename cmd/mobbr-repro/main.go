// Command mobbr-repro regenerates the paper's tables and figures from the
// simulated testbed and prints paper-style rows.
//
// Usage:
//
//	mobbr-repro                 # run everything
//	mobbr-repro -exp fig8       # run one experiment
//	mobbr-repro -dur 10s -seeds 5
//	mobbr-repro -exp all -archive runA/   # archive every grid point
//	mobbr-repro -rollup         # per-cell (device×cpu×cc×network) view
//	mobbr-repro -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mobbr/internal/obs"
	"mobbr/internal/profiling"
	"mobbr/internal/repro"
	"mobbr/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "", "experiment id (empty = all); see -list")
	dur := flag.Duration("dur", repro.DefaultDuration, "simulated transfer duration per run")
	seeds := flag.Int("seeds", repro.DefaultSeeds, "seeds per point")
	list := flag.Bool("list", false, "list experiment ids and exit")
	trFile := flag.String("trace-file", "", "with -exp trace: replay this dataset trace (.csv, .jsonl)")
	trPre := flag.String("trace-preset", "driving", "with -exp trace: synthesize this commute when no -trace-file")
	trSeed := flag.Int64("trace-seed", 1, "with -exp trace: synthesis seed")
	trTick := flag.Duration("trace-tick", 0, "with -exp trace: synthesis sample spacing (default 100ms)")
	traceTo := flag.String("trace", "", "write the last point's last-seed telemetry events as JSONL to FILE (- = stdout)")
	metrics := flag.Bool("metrics", false, "collect metrics and print the last point's snapshot + engine self-metrics")
	profile := flag.Bool("profile", false, "profile CPU cycles and add the pace% column; prints the last point's table")
	jobs := flag.Int("j", 0, "experiment points run in parallel (0 = one per CPU); results are identical at any -j")
	shards := flag.Int("shards", 1, "engine shards per run: split sender and receiver hosts across cores (conservative lookahead sync); results are identical at any -shards")
	journal := flag.String("journal", "", "checkpoint each finished point to this JSONL file")
	resume := flag.Bool("resume", false, "with -journal: skip points already checkpointed; resumed output is byte-identical")
	retries := flag.Int("retries", 0, "retry attempts for infra-class failures (wall deadline); deterministic failures never retry")
	cpuProf := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole grid to FILE")
	memProf := flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
	archiveDir := flag.String("archive", "", "write a run archive (manifest + per-point artifacts) under DIR/<exp-id>/; compare archives with mobbr-diff")
	rollup := flag.Bool("rollup", false, "print the per-cell (device×cpu×cc×network) rollup after each experiment table")
	progress := flag.Bool("progress", false, "live stderr progress: per-worker current point, done/failed, events/sec, ETA")
	forceStride := flag.Float64("force-stride", 0, "override every point's pacing stride (deliberate perturbation for mobbr-diff demos)")
	flag.Parse()
	if *exp == "all" {
		*exp = "" // alias: -exp all ≡ run everything
	}
	if warn, err := checkParallelism(*shards, *jobs); err != nil {
		fatal(err)
	} else if warn != "" {
		fmt.Fprintln(os.Stderr, "mobbr-repro: warning:", warn)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		for _, e := range append(repro.All(), repro.Scale(), repro.Recovery()) {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-10s %s\n", "trace", "Trace replay: BBR vs BBRv2 vs Cubic over a measured or synthesized commute (-trace-file / -trace-preset)")
		return
	}

	// Every grid — the paper's, scale, recovery, a replayed trace — is an
	// Experiment and takes the same path from here on.
	var exps []repro.Experiment
	switch *exp {
	case "":
		exps = append(repro.All(), repro.Recovery())
	case "trace":
		tr, err := repro.LoadTrace(*trFile, *trPre, *dur, *trTick, *trSeed)
		if err != nil {
			fatal(err)
		}
		e, err := repro.NewTraceExperiment(tr)
		if err != nil {
			fatal(err)
		}
		exps = []repro.Experiment{e}
	default:
		e, err := repro.ByID(*exp)
		if err != nil {
			fatal(err)
		}
		exps = []repro.Experiment{e}
	}
	if *resume && *journal == "" {
		fatal("-resume needs -journal")
	}
	if *journal != "" && len(exps) > 1 {
		fatal("-journal covers one experiment; pick it with -exp")
	}

	g := grid{
		opts: repro.RunOpts{
			Dur: *dur, Seeds: *seeds, Workers: *jobs, Shards: *shards,
			Telemetry: telemetry.Config{Trace: *traceTo != "", Metrics: *metrics, Profile: *profile},
			Journal:   *journal, Resume: *resume, Retries: *retries,
		},
		archiveDir: *archiveDir, rollup: *rollup, progress: *progress,
		forceStride: *forceStride, traceTo: *traceTo,
	}
	if status := g.runAll(exps, os.Stdout, os.Stderr); status != 0 {
		stopProf() // os.Exit skips the deferred call
		os.Exit(status)
	}
}

// grid is one invocation's settings for running, printing and archiving
// experiments.
type grid struct {
	opts        repro.RunOpts
	archiveDir  string
	rollup      bool
	progress    bool
	forceStride float64
	traceTo     string
}

// runAll runs the experiments in order and returns the process exit status:
// 1 when any point failed (each one reported on stderr) or on journal or
// archive I/O errors.
func (g grid) runAll(exps []repro.Experiment, stdout, stderr io.Writer) int {
	start := time.Now()
	failed := 0
	var last repro.Row
	for _, e := range exps {
		rows, n, err := g.run(e, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		failed += n
		last = rows[len(rows)-1]
	}
	if tel := g.opts.Telemetry; tel.Any() {
		writeTelemetry(last, g.traceTo, tel.Metrics, tel.Profile)
	}
	fmt.Fprintf(stdout, "(wall time %v)\n", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		fmt.Fprintf(stderr, "%d point(s) failed\n", failed)
		return 1
	}
	return 0
}

// run takes one experiment through the grid runner and writes its table
// (and rollup) to stdout, its archive to disk, and every failed point's
// class, message and repro line to stderr. It returns the rows and how many
// failed; the error is journal or archive I/O only.
func (g grid) run(e repro.Experiment, stdout, stderr io.Writer) ([]repro.Row, int, error) {
	if g.forceStride > 0 {
		for i := range e.Points {
			e.Points[i].Spec.Stride = g.forceStride
		}
	}
	opts := g.opts
	var prog *obs.Progress
	if g.progress {
		prog = obs.NewProgress(stderr, 0)
		opts.Progress = prog
	}
	start := time.Now()
	rows, err := repro.RunExperimentResilient(e, opts)
	if prog != nil {
		prog.Stop()
	}
	if err != nil {
		return nil, 0, err
	}
	repro.Print(stdout, e, rows)
	failed := repro.WriteFailures(stderr, e, rows)
	if g.archiveDir == "" && !g.rollup {
		return rows, failed, nil
	}
	ao := repro.ArchiveOpts{Dur: opts.Dur, Seeds: opts.Seeds, Telemetry: opts.Telemetry, Wall: time.Since(start)}
	if g.forceStride > 0 {
		ao.Flags = map[string]string{"force-stride": fmt.Sprint(g.forceStride)}
	}
	run, err := repro.BuildExperimentRun(e, rows, ao)
	if err != nil {
		return nil, 0, err
	}
	if g.archiveDir != "" {
		if err := obs.WriteRun(filepath.Join(g.archiveDir, e.ID), run.Manifest, run.Points); err != nil {
			return nil, 0, err
		}
	}
	if g.rollup {
		if err := obs.WriteRollup(stdout, run, obs.Rollup(run)); err != nil {
			return nil, 0, err
		}
	}
	return rows, failed, nil
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}

// writeTelemetry emits the enabled observability outputs from one row's
// sample run: JSONL trace, cycle-profile table, metrics + engine snapshot.
func writeTelemetry(row repro.Row, traceTo string, metrics, profile bool) {
	res := row.Sample
	if res == nil {
		return
	}
	if traceTo != "" && res.Events != nil {
		w := os.Stdout
		if traceTo != "-" {
			f, err := os.Create(traceTo)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := res.Events.WriteJSONL(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if profile && res.Profile != nil {
		fmt.Printf("cycle profile (%s, last seed):\n", row.Point.Label)
		if err := res.Profile.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if metrics {
		if res.Report != nil && res.Report.Metrics != nil {
			fmt.Printf("metrics (%s, last seed):\n", row.Point.Label)
			if err := res.Report.Metrics.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if res.Engine != nil {
			fmt.Println("engine self-metrics:")
			if err := res.Engine.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// checkParallelism validates the -shards/-j pair. Both knobs multiply:
// every in-flight grid point drives its own shard set, so asking for more
// shard goroutines than the scheduler has processors oversubscribes and the
// lock-step windows serialize anyway — legal, but worth a warning.
func checkParallelism(shards, jobs int) (warn string, err error) {
	if shards < 1 {
		return "", fmt.Errorf("-shards must be at least 1, got %d", shards)
	}
	if jobs < 0 {
		return "", fmt.Errorf("-j must be at least 0 (0 = one per CPU), got %d", jobs)
	}
	procs := runtime.GOMAXPROCS(0)
	effJobs := jobs
	if effJobs == 0 {
		effJobs = procs
	}
	if shards > 1 && shards*effJobs > procs {
		return fmt.Sprintf("-shards %d × %d workers wants %d goroutines but GOMAXPROCS is %d; shard windows will contend",
			shards, effJobs, shards*effJobs, procs), nil
	}
	return "", nil
}
