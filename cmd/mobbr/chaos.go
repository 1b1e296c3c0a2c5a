package main

import (
	"fmt"
	"io"

	"mobbr/internal/chaos"
)

// chaosSoak fuzzes a window of random-but-valid scenario specs under the
// invariant checker and per-point budgets, shrinks every deterministic
// failure to a minimal reproducer and reports them; exit 1 means the
// window produced findings.
func chaosSoak(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("chaos", "[flags]", "Fuzzes a window of generated scenario specs and shrinks any failure to a minimal reproducer.", stderr)
	n := fs.Int("n", 40, "generator seeds to try")
	seed := fs.Int64("seed", 1, "first generator seed of the window [seed, seed+n)")
	corpus := fs.String("corpus", "", "write minimized reproducers to `DIR`")
	if status, ok := parse(fs, args, 0); !ok {
		return status
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "mobbr: -n must be at least 1, got %d\n", *n)
		return 2
	}
	findings, err := chaos.Explore(chaos.ExploreOpts{N: *n, Seed: *seed, Corpus: *corpus, Log: stderr})
	if err != nil {
		return failf(stderr, "%v", err)
	}
	if len(findings) == 0 {
		fmt.Fprintf(stdout, "chaos: %d specs clean (seeds %d..%d)\n", *n, *seed, *seed+int64(*n)-1)
		return 0
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "chaos: seed %d: %s\n  repro: %s\n", f.GenSeed, f.Outcome.Signature(), f.Repro)
		if f.Path != "" {
			fmt.Fprintf(stdout, "  corpus: %s\n", f.Path)
		}
	}
	return 1
}
