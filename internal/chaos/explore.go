package chaos

import (
	"fmt"
	"io"

	"mobbr/internal/core"
)

// ExploreOpts configures one soak window.
type ExploreOpts struct {
	// N is the number of generator seeds to try.
	N int
	// Seed is the window's first generator seed; the window is
	// [Seed, Seed+N). Pinning it makes a soak fully reproducible.
	Seed int64
	// Corpus, when set, receives a minimized entry per finding.
	Corpus string
	// Log, when set, receives progress lines.
	Log io.Writer
}

// Finding is one failing generator seed, minimized.
type Finding struct {
	// GenSeed is the generator seed that produced the failure.
	GenSeed int64
	// Spec is the minimized reproducer (the generated spec itself when
	// shrinking was skipped for a machine-dependent wall-clock finding).
	Spec core.Spec
	// Outcome is the minimized spec's outcome — same signature as the
	// generated spec's by construction.
	Outcome Outcome
	// Repro is the one-command reproducer for Spec.
	Repro string
	// Path is the corpus file, when a corpus directory was given.
	Path string
}

// Explore fuzzes the window serially (deterministic discovery order):
// generate, run under budgets, and shrink every deterministic failure to a
// minimal reproducer. It returns all findings; an error means the corpus
// could not be written, not that a spec failed.
func Explore(o ExploreOpts) ([]Finding, error) { return explore(o, Generate) }

// explore is Explore over the specs generate draws for each seed.
func explore(o ExploreOpts, generate func(seed int64) core.Spec) ([]Finding, error) {
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, "chaos: "+format+"\n", args...)
		}
	}
	var findings []Finding
	for i := 0; i < o.N; i++ {
		seed := o.Seed + int64(i)
		spec := generate(seed)
		out := Run(spec, Budgets{})
		if out.OK {
			continue
		}
		f := Finding{GenSeed: seed}
		if core.InfraFailure(out.Class) {
			// Wall-clock findings are machine-dependent; shrinking
			// against a flaky signature would thrash, so report as-is.
			logf("seed %d: %s (infra-class, not shrunk)", seed, out.Signature())
			f.Spec, f.Outcome = spec, out
		} else {
			logf("seed %d: %s — shrinking", seed, out.Signature())
			f.Spec = Shrink(spec, Budgets{}, out.Signature())
			f.Outcome = Run(f.Spec, Budgets{})
		}
		f.Repro = core.ReproLine(f.Spec)
		if o.Corpus != "" {
			e, err := NewEntry(seed, f.Spec, f.Outcome)
			if err != nil {
				return findings, err
			}
			path, err := WriteEntry(o.Corpus, e)
			if err != nil {
				return findings, err
			}
			f.Path = path
			logf("seed %d: minimized reproducer written to %s", seed, path)
		}
		findings = append(findings, f)
	}
	logf("%d specs explored (seeds %d..%d), %d findings",
		o.N, o.Seed, o.Seed+int64(o.N)-1, len(findings))
	return findings, nil
}
