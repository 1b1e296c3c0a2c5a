// Command mobbr drives the simulated mobile-BBR testbed: one iPerf3-style
// upload, the paper's experiment grids, archive diffs, terminal figures
// and the chaos soak, one subcommand each.
//
//	mobbr -cc bbr -config low -conns 20           # run: one upload, iperf3-style report
//	mobbr run -run-spec '{"cc":"cubic",...}'      # replay a failure's repro line
//	mobbr grid -exp fig8 -dur 2s -seeds 1         # one paper experiment (-list for ids)
//	mobbr grid -exp all -archive runA             # every grid, archived
//	mobbr diff runA runB                          # per-cell regressions between archives
//	mobbr figures -dur 2s                         # Figures 2a, 4 and 8 as bar charts
//	mobbr chaos -n 40 -seed 1 -corpus findings/   # fuzz scenarios, shrink failures
//
// run is the default subcommand, so `mobbr -cc bbr …` and every repro line
// (`go run ./cmd/mobbr -run-spec '…'`) work as they are.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand args name and returns the process exit
// status: 0 on success, 1 when the work failed, 2 on a usage error. With
// no subcommand name (no arguments, or a flag first) it runs run.
func dispatch(args []string, stdout, stderr io.Writer) int {
	name := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	switch name {
	case "run":
		return run(args, stdout, stderr)
	case "grid":
		return grid(args, stdout, stderr)
	case "diff":
		return diff(args, stdout, stderr)
	case "figures":
		return figures(args, stdout, stderr)
	case "chaos":
		return chaosSoak(args, stdout, stderr)
	}
	fmt.Fprintf(stderr, "mobbr: unknown command %q; want run, grid, diff, figures or chaos (mobbr <command> -h)\n", name)
	return 2
}
