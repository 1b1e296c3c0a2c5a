package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/telemetry"
)

// newFlagSet returns a subcommand's flag set. Parse errors and -h go to
// stderr, headed by the usage line and a one-line summary.
func newFlagSet(name, usage, summary string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("mobbr "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mobbr %s %s\n%s\n\nflags:\n", name, usage, summary)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses a subcommand's flags, which must leave exactly nargs
// positional arguments. When ok is false the subcommand returns status: 0
// after -h, 2 on a bad flag or a wrong argument count.
func parse(fs *flag.FlagSet, args []string, nargs int) (status int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if fs.NArg() != nargs {
		fmt.Fprintf(fs.Output(), "%s: want %d argument(s), got %q\n", fs.Name(), nargs, fs.Args())
		fs.Usage()
		return 2, false
	}
	return 0, true
}

// failf reports a failed subcommand on stderr and returns exit status 1.
func failf(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "mobbr: "+format+"\n", args...)
	return 1
}

// shared holds the flags more than one subcommand takes. sharedFlags
// registers the ones a subcommand names, so each of them has its name,
// default and help text in one place.
type shared struct {
	dur              time.Duration
	seeds            int
	jobs, shards     int
	progress         bool
	trFile, trPreset string
	trSeed           int64
	trTick           time.Duration
	traceTo, folded  string
	metrics, profile bool
	cpuProf, memProf string
}

// sharedFlags registers on fs the shared flags in names, a space-separated
// list of: dur seeds j progress shards trace-source trace metrics profile
// folded pprof. dur and seeds give those two flags' defaults; seeds, and
// one shard, also stand when their flag is not registered.
func sharedFlags(fs *flag.FlagSet, dur time.Duration, seeds int, names string) *shared {
	s := &shared{seeds: seeds, shards: 1}
	want := strings.Fields(names)
	has := func(name string) bool { return slices.Contains(want, name) }
	if has("dur") {
		fs.DurationVar(&s.dur, "dur", dur, "simulated transfer duration per run (iperf3 -t)")
	}
	if has("seeds") {
		fs.IntVar(&s.seeds, "seeds", seeds, "seeds per run, averaged")
	}
	if has("j") {
		fs.IntVar(&s.jobs, "j", 0, "grid points run in parallel (0 = one per CPU); output is identical at any -j")
	}
	if has("progress") {
		fs.BoolVar(&s.progress, "progress", false, "live stderr progress: per-worker current point, done/failed, events/sec, ETA")
	}
	if has("shards") {
		fs.IntVar(&s.shards, "shards", 1, "engine shards per run: split sender and receiver hosts across cores (conservative lookahead sync); results are identical at any -shards")
	}
	if has("trace-source") {
		fs.StringVar(&s.trFile, "trace-file", "", "trace replay: replay the dataset trace (.csv, .jsonl) in `FILE`")
		fs.StringVar(&s.trPreset, "trace-preset", "driving", "trace replay: synthesize this commute when no -trace-file (stationary, walking, driving, train)")
		fs.Int64Var(&s.trSeed, "trace-seed", 1, "trace replay: synthesis seed")
		fs.DurationVar(&s.trTick, "trace-tick", 0, "trace replay: synthesis sample spacing (default 100ms)")
	}
	if has("trace") {
		fs.StringVar(&s.traceTo, "trace", "", "write the last run's telemetry events as JSONL to `FILE` (- = stdout)")
	}
	if has("metrics") {
		fs.BoolVar(&s.metrics, "metrics", false, "collect metrics; print the last run's snapshot and engine self-metrics")
	}
	if has("profile") {
		fs.BoolVar(&s.profile, "profile", false, "profile CPU cycles (core × phase × op); print the last run's table")
	}
	if has("folded") {
		fs.StringVar(&s.folded, "folded", "", "write the cycle profile as folded stacks (flamegraph input) to `FILE`")
	}
	if has("pprof") {
		fs.StringVar(&s.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the command to `FILE`")
		fs.StringVar(&s.memProf, "memprofile", "", "write a pprof heap profile at exit to `FILE`")
	}
	return s
}

// telemetry is the collection the telemetry flags ask every run for.
func (s *shared) telemetry() telemetry.Config {
	return telemetry.Config{Trace: s.traceTo != "", Metrics: s.metrics, Profile: s.profile || s.folded != ""}
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

// start checks -dur and -seeds, and -shards against jobs workers, of run,
// grid and figures, and starts the pprof profiles.
// When ok is true the caller defers stop, which flushes the CPU profile
// and writes the heap profile, so a failing run still leaves both files
// whole. Otherwise it returns status: 2 for bad flags, 1 when a profile
// cannot start.
func (s *shared) start(jobs int, stderr io.Writer) (stop func(), status int, ok bool) {
	warn, err := checkParallelism(s.shards, jobs)
	switch {
	case s.dur <= 0:
		err = fmt.Errorf("-dur must be positive, got %v", s.dur)
	case s.seeds < 1:
		err = fmt.Errorf("-seeds must be at least 1, got %d", s.seeds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mobbr:", err)
		return nil, 2, false
	}
	if warn != "" {
		fmt.Fprintln(stderr, "mobbr: warning:", warn)
	}
	var cpu *os.File
	if s.cpuProf != "" {
		f, err := os.Create(s.cpuProf)
		if err != nil {
			return nil, failf(stderr, "%v", err), false
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, failf(stderr, "cpuprofile: %v", err), false
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(stderr, "mobbr: cpuprofile:", err)
			}
		}
		if s.memProf != "" {
			runtime.GC() // up-to-date allocation statistics
			if err := writeFile(s.memProf, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(stderr, "mobbr: memprofile:", err)
			}
		}
	}, 0, true
}

// writeTelemetry writes the enabled observability outputs of res, a
// subcommand's last run, which label names in the headers: the JSONL event
// trace (warning on stderr when the bus cap dropped events), the cycle
// profile as a table and as folded stacks, and the metrics and engine
// snapshots.
func (s *shared) writeTelemetry(res *core.Result, label string, stdout, stderr io.Writer) error {
	if res == nil {
		return nil
	}
	if s.traceTo != "" && res.Events != nil {
		var err error
		if s.traceTo == "-" {
			err = res.Events.WriteJSONL(stdout)
		} else {
			err = writeFile(s.traceTo, res.Events.WriteJSONL)
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if n := res.Events.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "mobbr: trace dropped %d events past the buffer cap\n", n)
		}
	}
	if s.profile && res.Profile != nil {
		fmt.Fprintf(stdout, "cycle profile (%s):\n", label)
		if err := res.Profile.WriteTable(stdout); err != nil {
			return err
		}
	}
	if s.folded != "" && res.Profile != nil {
		if err := writeFile(s.folded, res.Profile.WriteFolded); err != nil {
			return fmt.Errorf("writing folded stacks: %w", err)
		}
	}
	if s.metrics && res.Report != nil && res.Report.Metrics != nil {
		fmt.Fprintf(stdout, "metrics (%s):\n", label)
		if err := res.Report.Metrics.Write(stdout); err != nil {
			return err
		}
	}
	if s.metrics && res.Engine != nil {
		fmt.Fprintf(stdout, "engine self-metrics (%s):\n", label)
		return res.Engine.Write(stdout)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
