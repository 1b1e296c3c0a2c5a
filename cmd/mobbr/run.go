package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/core"
	"mobbr/internal/units"
)

// run runs one experiment, built from flags or, with -run-spec, replayed
// from a failure's repro line, and prints an iPerf3-style report.
//
//	mobbr run -cc cubic -device pixel6 -network wifi -dur 10s
//	mobbr run -cc bbr -config default -conns 20 -stride 5
//	mobbr run -cc bbr -pacing=off -conns 20
//	mobbr run -cc bbr -fixed-rate 140Mbps -fixed-cwnd 70
func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", "[flags]",
		"Runs one upload on the simulated testbed and prints an iPerf3-style report.\n"+
			"run is the default command; the others are grid, diff, figures and chaos (mobbr <command> -h).", stderr)
	var spec core.Spec
	var wl apps.Workload
	devName := fs.String("device", "pixel4", "phone: pixel4, pixel6")
	cfgName := fs.String("config", "low", "CPU config: low, mid, high, default")
	netName := fs.String("network", "ethernet", "network: ethernet, wifi, cellular, 5g")
	pacing := fs.String("pacing", "auto", "pacing: auto, on, off")
	appKind := fs.String("app", "", "application workload instead of bulk upload: reqrep, stream")
	ival := fs.Duration("interval", 0, "print iperf3-style interval reports (e.g. 1s); needs -seeds 1")
	runSpec := fs.String("run-spec", "", "run this exact spec JSON (as printed in repro lines; @FILE or - reads a file or stdin); -seeds, -interval and the telemetry flags still apply")
	fs.StringVar(&spec.CC, "cc", "bbr", "congestion control: reno, cubic, bbr, bbr2, or a comma-separated mix assigned round-robin across connections (e.g. bbr,cubic)")
	fs.IntVar(&spec.Conns, "conns", 1, "parallel connections (iperf3 -P)")
	fs.Float64Var(&spec.Stride, "stride", 1, "pacing stride (§6.2)")
	unitFlag(fs, &spec.FixedPacingRate, units.ParseBandwidth, "fixed-rate", "pin per-connection pacing `rate`, e.g. 140Mbps")
	fs.IntVar(&spec.FixedCwnd, "fixed-cwnd", 0, "pin cwnd in packets (0 = off)")
	fs.BoolVar(&spec.DisableModel, "no-model", false, "disable the CC's per-ACK model (§5.1.1)")
	fs.BoolVar(&spec.HardwarePacing, "hw-pacing", false, "offload pacing timers to the NIC (§7.1.4)")
	unitFlag(fs, &spec.SndBuf, units.ParseDataSize, "sndbuf", "per-socket send buffer `size`, e.g. 1MB (default 256KB)")
	unitFlag(fs, &spec.TC.Rate, units.ParseBandwidth, "tc-rate", "router `rate` cap, e.g. 600Mbps")
	fs.DurationVar(&spec.TC.Delay, "tc-delay", 0, "router added delay")
	fs.Float64Var(&spec.TC.Loss, "tc-loss", 0, "router random loss fraction")
	fs.IntVar(&spec.TC.QueuePackets, "tc-queue", 0, "router queue depth in packets")
	fs.IntVar(&spec.TC.ECNThreshold, "tc-ecn", 0, "router ECN marking threshold in packets (0 = off)")
	fs.Int64Var(&spec.Seed, "seed", 1, "base RNG seed")
	unitFlag(fs, &wl.ReqSize, units.ParseDataSize, "req-size", "with -app reqrep: request `size`, e.g. 256KB")
	unitFlag(fs, &wl.RespSize, units.ParseDataSize, "resp-size", "with -app: response/ack `size`, e.g. 4KB")
	fs.DurationVar(&wl.Think, "think", 0, "with -app reqrep: mean client think time between requests")
	fs.DurationVar(&wl.Chunk, "chunk", 0, "with -app stream: media seconds per chunk (default 120ms)")
	fs.Func("ladder", "with -app stream: comma-separated ABR bitrate ladder `rates`, e.g. 1500Kbps,3Mbps,6Mbps", func(s string) error {
		wl.Ladder = nil
		for _, tok := range strings.Split(s, ",") {
			r, err := units.ParseBandwidth(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("rung %q: %w", tok, err)
			}
			wl.Ladder = append(wl.Ladder, r)
		}
		return nil
	})
	fs.IntVar(&wl.Startup, "startup", 0, "with -app stream: chunks buffered before playback starts")
	unitFlag(fs, &wl.DownRate, units.ParseBandwidth, "down-rate", "with -app: modeled downlink serialization `rate`, e.g. 100Mbps")
	sh := sharedFlags(fs, 5*time.Second, 1, "dur seeds trace metrics profile folded pprof")
	if status, ok := parse(fs, args, 0); !ok {
		return status
	}
	if *ival > 0 && sh.seeds != 1 {
		fmt.Fprintf(stderr, "mobbr: -interval prints one run's series and needs -seeds 1, got -seeds %d\n", sh.seeds)
		return 2
	}
	stop, status, ok := sh.start(stderr)
	if !ok {
		return status
	}
	defer stop()
	if *runSpec != "" {
		var err error
		if spec, err = readSpec(*runSpec); err != nil {
			return failf(stderr, "%v", err)
		}
	} else {
		// Tokens are the spec codec's, case-insensitive; lte and mmwave
		// name the cellular networks too.
		token := func(s string) []byte { return []byte(strings.ToLower(s)) }
		if spec.Device.UnmarshalText(token(*devName)) != nil {
			return failf(stderr, "unknown device %q", *devName)
		}
		if spec.CPU.UnmarshalText(token(*cfgName)) != nil {
			return failf(stderr, "unknown CPU config %q", *cfgName)
		}
		if alias, ok := map[string]core.Network{"lte": core.Cellular, "mmwave": core.Cellular5G}[strings.ToLower(*netName)]; ok {
			spec.Network = alias
		} else if spec.Network.UnmarshalText(token(*netName)) != nil {
			return failf(stderr, "unknown network %q", *netName)
		}
		on, off := true, false
		var known bool
		if spec.PacingOverride, known = map[string]*bool{"auto": nil, "on": &on, "off": &off}[strings.ToLower(*pacing)]; !known {
			return failf(stderr, "pacing must be auto, on or off")
		}
		if *appKind != "" {
			wl.Kind = strings.ToLower(*appKind)
			spec.Workload = wl
		}
		spec.Duration, spec.Warmup = sh.dur, sh.dur/5
	}
	// A replayed spec keeps what it collected; the flags add to it.
	tel := sh.telemetry()
	spec.Telemetry.Trace = spec.Telemetry.Trace || tel.Trace
	spec.Telemetry.Metrics = spec.Telemetry.Metrics || tel.Metrics
	spec.Telemetry.Profile = spec.Telemetry.Profile || tel.Profile
	if *ival > 0 {
		// Interval reports are passive: the one run that records them is
		// the run the report below describes.
		spec.Interval = *ival
	}

	agg, err := core.RunSeeds(spec, sh.seeds)
	if err != nil {
		// A failed run keeps its trace, which holds the checker's
		// violation events.
		var re *core.RunError
		if errors.As(err, &re) {
			if werr := sh.writeTelemetry(&core.Result{Events: re.Events}, "failed run", stdout, stderr); werr != nil {
				fmt.Fprintf(stderr, "mobbr: %v\n", werr)
			}
		}
		return failf(stderr, "%v", err)
	}
	if spec.Interval > 0 {
		fmt.Fprintln(stdout, "interval series (CSV):")
		if err := agg.Runs[0].Report.WriteIntervalsCSV(stdout); err != nil {
			return failf(stderr, "%v", err)
		}
		fmt.Fprintln(stdout)
	}
	printReport(stdout, spec, agg, sh.seeds)
	if err := sh.writeTelemetry(agg.Runs[len(agg.Runs)-1], "last run", stdout, stderr); err != nil {
		return failf(stderr, "%v", err)
	}
	return 0
}

// printReport writes the iPerf3-style report of seeds runs of spec.
func printReport(w io.Writer, spec core.Spec, agg *core.Aggregate, seeds int) {
	fmt.Fprintf(w, "%s, %d×%v runs\n", spec, seeds, spec.Duration)
	fmt.Fprintf(w, "  goodput      %8.1f Mbps", agg.Goodput.Mean()/1e6)
	if seeds > 1 {
		fmt.Fprintf(w, "  (±%.1f, 95%% CI)", agg.Goodput.CI95()/1e6)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  avg rtt      %8.2f ms\n", agg.AvgRTT.Mean()/1e6)
	fmt.Fprintf(w, "  min rtt      %8.2f ms\n", agg.MinRTT.Mean()/1e6)
	fmt.Fprintf(w, "  retransmits  %8.0f\n", agg.Retransmits.Mean())
	fmt.Fprintf(w, "  cpu util     %8.0f %%\n", agg.CPUUtil.Mean()*100)
	if agg.AvgIdle.Mean() > 0 {
		fmt.Fprintf(w, "  skb length   %8.1f Kb/period\n", units.DataSize(agg.AvgSKB.Mean()).Kilobits())
		fmt.Fprintf(w, "  idle time    %8.2f ms/period\n", agg.AvgIdle.Mean()/1e6)
		fmt.Fprintf(w, "  expected tx  %8.1f Mbps (skb×conns/idle)\n", agg.ExpectedTx.Mean()/1e6)
	}
	fmt.Fprintf(w, "  peak sndbuf  %8.1f KB\n", agg.MaxBufOcc.Mean()/1024)
	if a := agg.App; a != nil {
		fmt.Fprintf(w, "  app %-9s %8d ops", a.Kind, a.Completed)
		if a.Canceled > 0 {
			fmt.Fprintf(w, "  (%d canceled)", a.Canceled)
		}
		fmt.Fprintln(w)
		if len(a.LatMs) > 0 {
			fmt.Fprintf(w, "  latency      %8.1f ms p50, %.1f p90, %.1f p99\n", a.LatP(50), a.LatP(90), a.LatP(99))
		}
		if a.Kind == apps.KindStream {
			fmt.Fprintf(w, "  rebuffer     %8.2f %% (%d stalls)  avg level %.1f Mbps, %d switches\n",
				a.RebufferRatio*100, a.Stalls, a.AvgLevelMbps, a.Switches)
		}
	}
	last := agg.Runs[len(agg.Runs)-1].Report
	if len(last.PerConn) > 1 {
		fmt.Fprintf(w, "  jain index   %8.3f\n", last.Fairness.Jain)
	}
	if bd := last.CPUBreakdown; len(bd) > 0 {
		fmt.Fprintf(w, "  cpu cycles  ")
		for _, op := range []string{"pacing_timer", "ack_process", "seg_xmit", "skb_xmit", "cc_update", "data_copy"} {
			if f, ok := bd[op]; ok && f >= 0.005 {
				fmt.Fprintf(w, " %s %.0f%%", op, f*100)
			}
		}
		fmt.Fprintln(w)
	}
	// Per-connection goodput spread from the last run, as iperf3 prints.
	if len(last.PerConn) > 1 {
		lo, hi := last.PerConn[0], last.PerConn[0]
		for _, g := range last.PerConn {
			lo, hi = min(lo, g), max(hi, g)
		}
		fmt.Fprintf(w, "  per-conn     %v … %v\n", lo, hi)
	}
}

// readSpec decodes the -run-spec argument: spec JSON as a repro line
// prints it, or @FILE, or - for stdin.
func readSpec(arg string) (core.Spec, error) {
	data := []byte(arg)
	var err error
	switch {
	case arg == "-":
		data, err = io.ReadAll(os.Stdin)
	case strings.HasPrefix(arg, "@"):
		data, err = os.ReadFile(arg[1:])
	}
	if err != nil {
		return core.Spec{}, fmt.Errorf("reading spec: %w", err)
	}
	return core.DecodeSpec(data)
}

// unitFlag registers a flag parsed by one of the units parsers, so a
// malformed rate or size is a usage error like any other bad flag.
func unitFlag[T any](fs *flag.FlagSet, p *T, parse func(string) (T, error), name, usage string) {
	fs.Func(name, usage, func(s string) (err error) { *p, err = parse(s); return err })
}
