package main

import (
	"fmt"
	"io"

	"mobbr/internal/obs"
)

// diff compares two run archives written by mobbr grid -archive and
// reports per-cell regressions with noise-aware gating: a delta counts only
// when it clears both the combined 95% confidence interval of the two
// runs' means and a relative threshold, so seed wobble does not fail a
// build but a real pacing regression does. Diffing an archive against
// itself prints nothing and exits 0. A point whose histogram digest one
// archive lost while the other kept it fails the diff too.
//
//	mobbr diff runA runB            # exit 1 when any cell regressed
//	mobbr diff -all runA runB       # print every aligned cell
//	mobbr diff -rel 0.10 runA runB  # require a 10% move
func diff(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("diff", "[flags] <baseline-archive> <candidate-archive>",
		"Compares two grid archives cell by cell; exits 1 when any cell regressed or one side lost a histogram digest.", stderr)
	rel := fs.Float64("rel", 0.05, "relative-change floor: deltas below this fraction of the baseline never gate")
	retxAbs := fs.Float64("retx-abs", 50, "absolute retransmission floor: retx deltas below this never gate")
	all := fs.Bool("all", false, "print every aligned cell, not only significant ones")
	quiet := fs.Bool("q", false, "suppress the summary line; table and exit code only")
	if status, ok := parse(fs, args, 2); !ok {
		return status
	}
	var runs [2]*obs.Archive
	for i := range runs {
		a, err := obs.LoadArchive(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(stderr, "mobbr:", err)
			return 2
		}
		runs[i] = a
	}
	deltas, sum, err := obs.Diff(runs[0], runs[1], obs.DiffOpts{Rel: *rel, RetxAbs: *retxAbs, All: *all})
	if err != nil {
		fmt.Fprintln(stderr, "mobbr:", err)
		return 2
	}
	obs.WriteDeltas(stdout, deltas)
	if !*quiet && (len(deltas) > 0 || sum.Unmatched > 0 || sum.OneSidedDigests > 0 || len(sum.SkippedExps) > 0) {
		fmt.Fprintf(stdout, "mobbr diff: %d experiment(s), %d cell(s): %d regressed, %d improved",
			sum.Experiments, sum.Cells, sum.Regressed, sum.Improved)
		if sum.Unmatched > 0 {
			fmt.Fprintf(stdout, ", %d point(s) unmatched", sum.Unmatched)
		}
		if sum.OneSidedDigests > 0 {
			fmt.Fprintf(stdout, ", %d point(s) with a histogram digest on one side only", sum.OneSidedDigests)
		}
		if len(sum.SkippedExps) > 0 {
			fmt.Fprintf(stdout, ", skipped %v (present in one archive only)", sum.SkippedExps)
		}
		fmt.Fprintln(stdout)
	}
	if sum.Regressed > 0 || sum.OneSidedDigests > 0 {
		return 1
	}
	return 0
}
