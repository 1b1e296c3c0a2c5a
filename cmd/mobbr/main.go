// Command mobbr runs one experiment on the simulated mobile-BBR testbed and
// prints an iPerf3-style report.
//
// Examples:
//
//	mobbr -cc bbr -config low -conns 20
//	mobbr -cc cubic -device pixel6 -network wifi -dur 10s
//	mobbr -cc bbr -config default -conns 20 -stride 5
//	mobbr -cc bbr -pacing=off -conns 20
//	mobbr -cc bbr -fixed-rate 140Mbps -fixed-cwnd 70
//	mobbr -exp recovery -seeds 3
//	mobbr -exp trace -trace-file internal/mobility/testdata/irish4g_sample.csv
//	mobbr -exp trace -trace-preset train -dur 30s -trace-seed 7
//	mobbr -run-spec '{"cc":"cubic","conns":1,...}'   # replay a failure's repro line
//	mobbr -chaos 40 -chaos-seed 1                    # fuzz 40 scenarios, shrink failures
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/chaos"
	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/netem"
	"mobbr/internal/obs"
	"mobbr/internal/profiling"
	"mobbr/internal/repro"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

func main() {
	var (
		ccName   = flag.String("cc", "bbr", "congestion control: cubic, bbr, bbr2")
		devName  = flag.String("device", "pixel4", "phone: pixel4, pixel6")
		cfgName  = flag.String("config", "low", "CPU config: low, mid, high, default")
		netName  = flag.String("network", "ethernet", "network: ethernet, wifi, cellular")
		conns    = flag.Int("conns", 1, "parallel connections (iperf3 -P)")
		dur      = flag.Duration("dur", 5*time.Second, "transfer duration (iperf3 -t)")
		seeds    = flag.Int("seeds", 1, "seeds to average over")
		stride   = flag.Float64("stride", 1, "pacing stride (§6.2)")
		pacingS  = flag.String("pacing", "auto", "pacing: auto, on, off")
		fixRate  = flag.String("fixed-rate", "", "pin per-connection pacing rate, e.g. 140Mbps")
		fixCwnd  = flag.Int("fixed-cwnd", 0, "pin cwnd in packets (0 = off)")
		noModel  = flag.Bool("no-model", false, "disable the CC's per-ACK model (§5.1.1)")
		hwPace   = flag.Bool("hw-pacing", false, "offload pacing timers to the NIC (§7.1.4)")
		appKind  = flag.String("app", "", "application workload instead of bulk upload: reqrep, stream")
		reqSize  = flag.String("req-size", "", "with -app reqrep: request size, e.g. 256KB")
		respSize = flag.String("resp-size", "", "with -app: response/ack size, e.g. 4KB")
		think    = flag.Duration("think", 0, "with -app reqrep: mean client think time between requests")
		chunk    = flag.Duration("chunk", 0, "with -app stream: media seconds per chunk (default 120ms)")
		ladder   = flag.String("ladder", "", "with -app stream: comma-separated ABR bitrate rungs, e.g. 1500Kbps,3Mbps,6Mbps")
		startup  = flag.Int("startup", 0, "with -app stream: chunks buffered before playback starts")
		downRate = flag.String("down-rate", "", "with -app: modeled downlink serialization rate, e.g. 100Mbps")
		ival     = flag.Duration("interval", 0, "print iperf3-style interval reports (e.g. 1s)")
		sndbuf   = flag.String("sndbuf", "", "per-socket send buffer, e.g. 1MB (default 256KB)")
		tcRate   = flag.String("tc-rate", "", "router rate cap, e.g. 600Mbps")
		tcDelay  = flag.Duration("tc-delay", 0, "router added delay")
		tcLoss   = flag.Float64("tc-loss", 0, "router random loss fraction")
		tcQueue  = flag.Int("tc-queue", 0, "router queue depth in packets")
		tcECN    = flag.Int("tc-ecn", 0, "router ECN marking threshold in packets (0 = off)")
		seed     = flag.Int64("seed", 1, "base RNG seed")
		expName  = flag.String("exp", "", "run a named repro experiment instead (e.g. recovery, trace; see mobbr-repro -list)")
		trFile   = flag.String("trace-file", "", "with -exp trace: replay this dataset trace (.csv, .jsonl)")
		trPre    = flag.String("trace-preset", "driving", "with -exp trace: synthesize this commute when no -trace-file (stationary, walking, driving, train)")
		trSeed   = flag.Int64("trace-seed", 1, "with -exp trace: synthesis seed")
		trTick   = flag.Duration("trace-tick", 0, "with -exp trace: synthesis sample spacing (default 100ms)")
		traceTo  = flag.String("trace", "", "write the last run's telemetry events as JSONL to FILE (- = stdout)")
		metrics  = flag.Bool("metrics", false, "collect and print the metrics registry and engine self-metrics")
		jobs     = flag.Int("j", 0, "with -exp: experiment points run in parallel (0 = one per CPU); results are identical at any -j")
		shards   = flag.Int("shards", 1, "engine shards per run: split sender and receiver hosts across cores (conservative lookahead sync); results are identical at any -shards")
		profile  = flag.Bool("profile", false, "print the cycle-attribution profile (core × phase × op)")
		folded   = flag.String("folded", "", "write the cycle profile as folded stacks (flamegraph input) to FILE")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to FILE")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
		showProg = flag.Bool("progress", false, "with -exp: live stderr progress (per-worker point, done count, events/sec, ETA)")
		runSpec  = flag.String("run-spec", "", "run this exact spec JSON (as printed in repro lines; @FILE or - reads a file or stdin)")
		chaosN   = flag.Int("chaos", 0, "fuzz N random-but-valid scenario specs under budgets, shrinking any failure to a minimal reproducer")
		chaosSd  = flag.Int64("chaos-seed", 1, "with -chaos: first generator seed of the (pinned, reproducible) window")
		chaosCp  = flag.String("chaos-corpus", "", "with -chaos: write minimized reproducers to this directory")
	)
	flag.Parse()

	if warn, err := checkParallelism(*shards, *jobs); err != nil {
		fatalf("%v", err)
	} else if warn != "" {
		fmt.Fprintln(os.Stderr, "mobbr: warning:", warn)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *runSpec != "" {
		if !runSpecCmd(*runSpec) {
			stopProf() // os.Exit skips the deferred call
			os.Exit(1)
		}
		return
	}
	if *chaosN > 0 {
		if !runChaos(*chaosN, *chaosSd, *chaosCp) {
			stopProf()
			os.Exit(1)
		}
		return
	}

	tel := telemetry.Config{
		Trace:   *traceTo != "",
		Metrics: *metrics,
		Profile: *profile || *folded != "",
	}

	if *expName != "" {
		e, err := resolveExperiment(strings.ToLower(*expName), *trFile, *trPre, *dur, *trTick, *trSeed)
		if err != nil {
			fatalf("%v", err)
		}
		opts := repro.RunOpts{Dur: *dur, Seeds: *seeds, Workers: *jobs, Shards: *shards, Telemetry: tel}
		if !runExperiment(e, opts, *showProg, *traceTo, *metrics, *profile, *folded) {
			stopProf()
			os.Exit(1)
		}
		return
	}

	spec := core.Spec{
		Telemetry:      tel,
		Shards:         *shards,
		CC:             *ccName,
		Conns:          *conns,
		Duration:       *dur,
		Warmup:         *dur / 5,
		Stride:         *stride,
		HardwarePacing: *hwPace,
		FixedCwnd:      *fixCwnd,
		DisableModel:   *noModel,
		Seed:           *seed,
		TC: netem.TC{
			Delay:        *tcDelay,
			Loss:         *tcLoss,
			QueuePackets: *tcQueue,
			ECNThreshold: *tcECN,
		},
	}

	switch strings.ToLower(*devName) {
	case "pixel4":
		spec.Device = device.Pixel4
	case "pixel6":
		spec.Device = device.Pixel6
	default:
		fatalf("unknown device %q", *devName)
	}
	switch strings.ToLower(*cfgName) {
	case "low":
		spec.CPU = device.LowEnd
	case "mid":
		spec.CPU = device.MidEnd
	case "high":
		spec.CPU = device.HighEnd
	case "default":
		spec.CPU = device.Default
	default:
		fatalf("unknown CPU config %q", *cfgName)
	}
	switch strings.ToLower(*netName) {
	case "ethernet":
		spec.Network = core.Ethernet
	case "wifi":
		spec.Network = core.WiFi
	case "cellular", "lte":
		spec.Network = core.Cellular
	case "5g", "mmwave":
		spec.Network = core.Cellular5G
	default:
		fatalf("unknown network %q", *netName)
	}
	switch strings.ToLower(*pacingS) {
	case "auto":
	case "on":
		on := true
		spec.PacingOverride = &on
	case "off":
		off := false
		spec.PacingOverride = &off
	default:
		fatalf("pacing must be auto, on or off")
	}
	if *fixRate != "" {
		r, err := units.ParseBandwidth(*fixRate)
		if err != nil {
			fatalf("bad -fixed-rate: %v", err)
		}
		spec.FixedPacingRate = r
	}
	if *tcRate != "" {
		r, err := units.ParseBandwidth(*tcRate)
		if err != nil {
			fatalf("bad -tc-rate: %v", err)
		}
		spec.TC.Rate = r
	}

	if *sndbuf != "" {
		n, err := units.ParseDataSize(*sndbuf)
		if err != nil {
			fatalf("bad -sndbuf: %v", err)
		}
		spec.SndBuf = n
	}
	if *appKind != "" {
		wl := apps.Workload{Kind: strings.ToLower(*appKind), Think: *think, Chunk: *chunk, Startup: *startup}
		if *reqSize != "" {
			n, err := units.ParseDataSize(*reqSize)
			if err != nil {
				fatalf("bad -req-size: %v", err)
			}
			wl.ReqSize = n
		}
		if *respSize != "" {
			n, err := units.ParseDataSize(*respSize)
			if err != nil {
				fatalf("bad -resp-size: %v", err)
			}
			wl.RespSize = n
		}
		if *ladder != "" {
			for _, tok := range strings.Split(*ladder, ",") {
				r, err := units.ParseBandwidth(strings.TrimSpace(tok))
				if err != nil {
					fatalf("bad -ladder rung %q: %v", tok, err)
				}
				wl.Ladder = append(wl.Ladder, r)
			}
		}
		if *downRate != "" {
			r, err := units.ParseBandwidth(*downRate)
			if err != nil {
				fatalf("bad -down-rate: %v", err)
			}
			wl.DownRate = r
		}
		spec.Workload = wl
	}
	if *ival > 0 && *seeds == 1 {
		res, err := core.Run(func() core.Spec { s := spec; s.Interval = *ival; return s }())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println("interval series (CSV):")
		if err := res.Report.WriteIntervalsCSV(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		fmt.Println()
	}
	agg, err := core.RunSeeds(spec, *seeds)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%s, %d×%v runs\n", spec, *seeds, *dur)
	fmt.Printf("  goodput      %8.1f Mbps", agg.Goodput.Mean()/1e6)
	if *seeds > 1 {
		fmt.Printf("  (±%.1f, 95%% CI)", agg.Goodput.CI95()/1e6)
	}
	fmt.Println()
	fmt.Printf("  avg rtt      %8.2f ms\n", agg.AvgRTT.Mean()/1e6)
	fmt.Printf("  min rtt      %8.2f ms\n", agg.MinRTT.Mean()/1e6)
	fmt.Printf("  retransmits  %8.0f\n", agg.Retransmits.Mean())
	fmt.Printf("  cpu util     %8.0f %%\n", agg.CPUUtil.Mean()*100)
	if agg.AvgIdle.Mean() > 0 {
		fmt.Printf("  skb length   %8.1f Kb/period\n", units.DataSize(agg.AvgSKB.Mean()).Kilobits())
		fmt.Printf("  idle time    %8.2f ms/period\n", agg.AvgIdle.Mean()/1e6)
		fmt.Printf("  expected tx  %8.1f Mbps (skb×conns/idle)\n", agg.ExpectedTx.Mean()/1e6)
	}
	fmt.Printf("  peak sndbuf  %8.1f KB\n", agg.MaxBufOcc.Mean()/1024)
	if a := agg.App; a != nil {
		fmt.Printf("  app %-9s %8d ops", a.Kind, a.Completed)
		if a.Canceled > 0 {
			fmt.Printf("  (%d canceled)", a.Canceled)
		}
		fmt.Println()
		if len(a.LatMs) > 0 {
			fmt.Printf("  latency      %8.1f ms p50, %.1f p90, %.1f p99\n",
				a.LatP(50), a.LatP(90), a.LatP(99))
		}
		if a.Kind == apps.KindStream {
			fmt.Printf("  rebuffer     %8.2f %% (%d stalls)  avg level %.1f Mbps, %d switches\n",
				a.RebufferRatio*100, a.Stalls, a.AvgLevelMbps, a.Switches)
		}
	}
	last0 := agg.Runs[len(agg.Runs)-1].Report
	if len(last0.PerConn) > 1 {
		fmt.Printf("  jain index   %8.3f\n", last0.Fairness.Jain)
	}
	if bd := last0.CPUBreakdown; len(bd) > 0 {
		fmt.Printf("  cpu cycles  ")
		for _, op := range []string{"pacing_timer", "ack_process", "seg_xmit", "skb_xmit", "cc_update", "data_copy"} {
			if f, ok := bd[op]; ok && f >= 0.005 {
				fmt.Printf(" %s %.0f%%", op, f*100)
			}
		}
		fmt.Println()
	}
	// Per-connection goodput spread from the last run, as iperf3 prints.
	last := agg.Runs[len(agg.Runs)-1].Report
	if len(last.PerConn) > 1 {
		min, max := last.PerConn[0], last.PerConn[0]
		for _, g := range last.PerConn {
			if g < min {
				min = g
			}
			if g > max {
				max = g
			}
		}
		fmt.Printf("  per-conn     %v … %v\n", min, max)
	}
	writeTelemetry(agg.Runs[len(agg.Runs)-1], *traceTo, *metrics, *profile, *folded)
}

// writeTelemetry emits the enabled observability outputs of one run: the
// JSONL event trace, the metrics/engine snapshot, and the cycle profile as
// a table and/or folded flamegraph stacks.
func writeTelemetry(res *core.Result, traceTo string, metrics, profile bool, folded string) {
	if res == nil {
		return
	}
	if traceTo != "" && res.Events != nil {
		w := os.Stdout
		if traceTo != "-" {
			f, err := os.Create(traceTo)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := res.Events.WriteJSONL(w); err != nil {
			fatalf("writing trace: %v", err)
		}
		if n := res.Events.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "mobbr: trace dropped %d events past the buffer cap\n", n)
		}
	}
	if profile && res.Profile != nil {
		fmt.Println("cycle profile (last run):")
		if err := res.Profile.WriteTable(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
	if folded != "" && res.Profile != nil {
		f, err := os.Create(folded)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := res.Profile.WriteFolded(f); err != nil {
			fatalf("writing folded stacks: %v", err)
		}
	}
	if metrics {
		if res.Report != nil && res.Report.Metrics != nil {
			fmt.Println("metrics (last run):")
			if err := res.Report.Metrics.Write(os.Stdout); err != nil {
				fatalf("%v", err)
			}
		}
		if res.Engine != nil {
			fmt.Println("engine self-metrics (last run):")
			if err := res.Engine.Write(os.Stdout); err != nil {
				fatalf("%v", err)
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

// resolveExperiment maps an -exp id to its grid: "trace" compiles the
// dataset file or synthesized preset commute, every other id is a registry
// lookup (see mobbr-repro -list).
func resolveExperiment(id, file, preset string, dur, tick time.Duration, traceSeed int64) (repro.Experiment, error) {
	if id != "trace" {
		return repro.ByID(id)
	}
	tr, err := repro.LoadTrace(file, preset, dur, tick, traceSeed)
	if err != nil {
		return repro.Experiment{}, err
	}
	return repro.NewTraceExperiment(tr)
}

// runExperiment runs one repro experiment like mobbr-repro -exp and prints
// its table. A false return means some point failed; each is reported on
// stderr with its repro line.
func runExperiment(e repro.Experiment, opts repro.RunOpts, showProg bool, traceTo string, metrics, profile bool, folded string) bool {
	var prog *obs.Progress
	if showProg {
		prog = obs.NewProgress(os.Stderr, 0)
		opts.Progress = prog
	}
	rows, err := repro.RunExperimentResilient(e, opts)
	if prog != nil {
		prog.Stop()
	}
	if err != nil {
		fatalf("%v", err)
	}
	repro.Print(os.Stdout, e, rows)
	writeTelemetry(rows[len(rows)-1].Sample, traceTo, metrics, profile, folded)
	return repro.WriteFailures(os.Stderr, e, rows) == 0
}

// runSpecCmd replays one exact spec from a failure's repro line and prints
// a short report. A false return means the failure reproduced (or the spec
// didn't parse); the error text carries its own repro line.
func runSpecCmd(arg string) bool {
	data := []byte(arg)
	switch {
	case arg == "-":
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mobbr: reading spec from stdin: %v\n", err)
			return false
		}
		data = b
	case strings.HasPrefix(arg, "@"):
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			fmt.Fprintf(os.Stderr, "mobbr: %v\n", err)
			return false
		}
		data = b
	}
	spec, err := core.DecodeSpec(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobbr: %v\n", err)
		return false
	}
	res, err := core.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobbr: run failed:\n%v\n", err)
		return false
	}
	r := res.Report
	fmt.Printf("%s: ok\n", spec)
	fmt.Printf("  goodput      %8.1f Mbps\n", r.Goodput.Mbit())
	fmt.Printf("  avg rtt      %8.2f ms\n", float64(r.AvgRTT)/1e6)
	fmt.Printf("  retransmits  %8d\n", r.Retransmits)
	fmt.Printf("  cpu util     %8.0f %%\n", r.CPUUtil*100)
	return true
}

// runChaos drives the chaos soak: explore a pinned seed window, shrink
// every deterministic failure, and report the minimized reproducers. A
// false return means the window produced findings.
func runChaos(n int, seed int64, corpus string) bool {
	findings, err := chaos.Explore(chaos.ExploreOpts{N: n, Seed: seed, Corpus: corpus, Log: os.Stderr})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobbr: %v\n", err)
		return false
	}
	if len(findings) == 0 {
		fmt.Printf("chaos: %d specs clean (seeds %d..%d)\n", n, seed, seed+int64(n)-1)
		return true
	}
	for _, f := range findings {
		fmt.Printf("chaos: seed %d: %s\n  repro: %s\n", f.GenSeed, f.Outcome.Signature(), f.Repro)
		if f.Path != "" {
			fmt.Printf("  corpus: %s\n", f.Path)
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mobbr: "+format+"\n", args...)
	os.Exit(1)
}
