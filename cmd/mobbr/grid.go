package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"mobbr/internal/obs"
	"mobbr/internal/repro"
)

// grid regenerates the paper's tables and figures through the resilient
// grid runner and prints paper-style rows.
//
//	mobbr grid                        # every paper grid plus recovery
//	mobbr grid -exp fig8 -dur 10s -seeds 5
//	mobbr grid -exp all -archive runA # archive every grid point
//	mobbr grid -exp fig2 -rollup      # per-cell (device×cpu×cc×network) view
func grid(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("grid", "[flags]", "Runs the paper's experiment grids and prints paper-style tables.", stderr)
	exp := fs.String("exp", "all", "experiment id, or all for every paper grid plus recovery; see -list")
	list := fs.Bool("list", false, "list experiment ids and exit")
	journal := fs.String("journal", "", "checkpoint each finished point to this JSONL `FILE`")
	resume := fs.Bool("resume", false, "with -journal: skip points already checkpointed; resumed output is byte-identical")
	retries := fs.Int("retries", 0, "retry attempts for infra-class failures (wall deadline); deterministic failures never retry")
	archiveDir := fs.String("archive", "", "write a run archive (manifest + per-point artifacts) under `DIR`/<exp-id>/; compare archives with mobbr diff")
	rollup := fs.Bool("rollup", false, "print the per-cell (device×cpu×cc×network) rollup after each experiment table")
	forceStride := fs.Float64("force-stride", 0, "override every point's pacing stride (deliberate perturbation for mobbr diff demos)")
	sh := sharedFlags(fs, repro.DefaultDuration, repro.DefaultSeeds, "dur seeds j progress trace-source trace metrics profile pprof")
	if status, ok := parse(fs, args, 0); !ok {
		return status
	}
	stop, status, ok := sh.start(stderr)
	if !ok {
		return status
	}
	defer stop()

	if *list {
		for _, e := range append(repro.All(), repro.Scale(), repro.Recovery(), repro.Calibration()) {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		fmt.Fprintf(stdout, "%-10s %s\n", "trace", "Trace replay: BBR vs BBRv2 vs Cubic over a measured or synthesized commute (-trace-file / -trace-preset)")
		return 0
	}
	// Every grid — the paper's, scale, recovery, calibration, a replayed
	// trace — is an Experiment and takes the same path from here on.
	var exps []repro.Experiment
	switch *exp {
	case "", "all":
		exps = append(repro.All(), repro.Recovery())
	case "trace":
		tr, err := repro.LoadTrace(sh.trFile, sh.trPreset, sh.dur, sh.trTick, sh.trSeed)
		if err != nil {
			return failf(stderr, "%v", err)
		}
		e, err := repro.NewTraceExperiment(tr)
		if err != nil {
			return failf(stderr, "%v", err)
		}
		exps = []repro.Experiment{e}
	default:
		e, err := repro.ByID(*exp)
		if err != nil {
			return failf(stderr, "%v", err)
		}
		exps = []repro.Experiment{e}
	}
	if *resume && *journal == "" {
		return failf(stderr, "-resume needs -journal")
	}
	if *journal != "" && len(exps) > 1 {
		return failf(stderr, "-journal covers one experiment; pick it with -exp")
	}
	g := gridRun{
		opts: repro.RunOpts{
			Dur: sh.dur, Seeds: sh.seeds, Workers: sh.jobs, Telemetry: sh.telemetry(),
			Journal: *journal, Resume: *resume, Retries: *retries,
		},
		archiveDir: *archiveDir, rollup: *rollup, progress: sh.progress,
		forceStride: *forceStride, out: sh,
	}
	return g.runAll(exps, stdout, stderr)
}

// gridRun is one invocation's settings for running, printing and archiving
// experiments.
type gridRun struct {
	opts        repro.RunOpts
	archiveDir  string
	rollup      bool
	progress    bool
	forceStride float64
	out         *shared // telemetry outputs, when opts.Telemetry asks for any
}

// runAll runs the experiments in order and returns the exit status: 1 when
// any point failed (each one reported on stderr) or on journal, archive or
// telemetry I/O errors.
func (g gridRun) runAll(exps []repro.Experiment, stdout, stderr io.Writer) int {
	start := time.Now()
	failed := 0
	var last repro.Row
	for _, e := range exps {
		rows, n, err := g.run(e, stdout, stderr)
		if err != nil {
			return failf(stderr, "%v", err)
		}
		failed += n
		last = rows[len(rows)-1]
	}
	if g.opts.Telemetry.Any() {
		if err := g.out.writeTelemetry(last.Sample, last.Point.Label+", last seed", stdout, stderr); err != nil {
			return failf(stderr, "%v", err)
		}
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
func (g gridRun) run(e repro.Experiment, stdout, stderr io.Writer) ([]repro.Row, int, error) {
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
