package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/faults"
	"mobbr/internal/netem"
	"mobbr/internal/units"
)

// TestGenerateValidAndDeterministic: every generated spec must validate
// (a finding is then always a simulator bug, never a malformed input) and
// regenerate byte-identically from its seed. The coverage counters guard
// the generator against silently collapsing onto a corner of the space.
func TestGenerateValidAndDeterministic(t *testing.T) {
	var withFaults, withMobility, multiCC, churn int
	nets := map[core.Network]bool{}
	for seed := int64(1); seed <= 120; seed++ {
		spec := Generate(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d generated an invalid spec: %v\nrepro: %s", seed, err, core.ReproLine(spec))
		}
		a, err := core.EncodeSpec(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := core.EncodeSpec(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: Generate is not deterministic", seed)
		}
		if !spec.Faults.Empty() {
			withFaults++
		}
		if spec.Mobility != nil {
			withMobility++
		}
		if strings.Contains(spec.CC, ",") {
			multiCC++
		}
		if spec.Flows != nil {
			churn++
		}
		nets[spec.Network] = true
	}
	if withFaults == 0 || withMobility == 0 || multiCC == 0 || churn == 0 || len(nets) < 4 {
		t.Errorf("generator coverage too thin: faults=%d mobility=%d multiCC=%d churn=%d networks=%d",
			withFaults, withMobility, multiCC, churn, len(nets))
	}
}

// TestRunClassifiesFailures drives each budget/containment path of the
// chaos runner with a deliberate harness fault.
func TestRunClassifiesFailures(t *testing.T) {
	base := core.Spec{CC: "cubic", Conns: 1, Duration: 300 * time.Millisecond}

	ok := Run(base, Budgets{})
	if !ok.OK {
		t.Fatalf("healthy spec failed: %+v", ok)
	}

	panics := base
	panics.Inject = core.Inject{Kind: core.InjectPanic, At: 50 * time.Millisecond}
	if out := Run(panics, Budgets{}); out.OK || out.Class != core.FailPanic ||
		!strings.Contains(out.Msg, "repro:") {
		t.Errorf("panic outcome = %+v", out)
	}

	stalls := base
	stalls.Inject = core.Inject{Kind: core.InjectStall, At: 50 * time.Millisecond}
	stalls.MaxStall = 10_000
	if out := Run(stalls, Budgets{}); out.OK || out.Class != core.FailStall ||
		!strings.Contains(out.Msg, "repro:") {
		t.Errorf("stall outcome = %+v", out)
	}

	corrupt := base
	corrupt.Inject = core.Inject{Kind: core.InjectCorruptInflight, At: 100 * time.Millisecond}
	if out := Run(corrupt, Budgets{}); out.OK || out.Class != core.FailViolation ||
		out.Rule != "inflight/counter" {
		t.Errorf("violation outcome = %+v", out)
	}

	if out := Run(base, Budgets{MaxPoolOutstanding: 1}); out.OK || out.Class != FailPoolBudget ||
		!strings.Contains(out.Msg, "repro:") {
		t.Errorf("pool-budget outcome = %+v", out)
	}
}

// junkSpec is a deliberately over-decorated spec whose only real defect is
// the injected inflight corruption — everything else is shrinkable noise.
func junkSpec() core.Spec {
	return core.Spec{
		CC:       "bbr,cubic",
		Conns:    4,
		Duration: 600 * time.Millisecond,
		Warmup:   120 * time.Millisecond,
		Network:  core.WiFi,
		TC:       netem.TC{Delay: 10 * time.Millisecond, QueuePackets: 256},
		Stride:   2.5,
		SndBuf:   512 * units.KB,
		Seed:     7,
		Check:    true,
		Faults: faults.Schedule{Events: []faults.Event{
			faults.Blackout{Start: 200 * time.Millisecond, Duration: 50 * time.Millisecond},
			faults.DelaySpike{Start: 300 * time.Millisecond, Duration: 60 * time.Millisecond,
				Extra: 20 * time.Millisecond},
		}},
		Inject: core.Inject{Kind: core.InjectCorruptInflight, At: 150 * time.Millisecond},
	}
}

// TestShrinkKnownBad is the acceptance gate: a seeded known-bad spec must
// shrink to a minimal reproducer that trips the same checker rule, and the
// minimized spec must replay deterministically.
func TestShrinkKnownBad(t *testing.T) {
	var b Budgets
	junk := junkSpec()
	out := Run(junk, b)
	if out.OK || out.Class != core.FailViolation || out.Rule != "inflight/counter" {
		t.Fatalf("junk spec outcome = %+v, want inflight/counter violation", out)
	}
	sig := out.Signature()

	min := Shrink(junk, b, sig)
	minOut := Run(min, b)
	if minOut.Signature() != sig {
		t.Fatalf("shrunk spec signature = %q, want %q", minOut.Signature(), sig)
	}
	if again := Run(min, b); again.Signature() != sig {
		t.Fatalf("shrunk spec does not replay deterministically: %q then %q",
			minOut.Signature(), again.Signature())
	}

	if min.Conns != 1 {
		t.Errorf("conns not minimized: %d", min.Conns)
	}
	if !min.Faults.Empty() {
		t.Errorf("irrelevant fault schedule kept: %v", min.Faults.Events)
	}
	if min.Mobility != nil {
		t.Error("mobility kept")
	}
	if min.TC != (netem.TC{}) {
		t.Errorf("irrelevant tc knobs kept: %+v", min.TC)
	}
	if min.Stride != 0 || min.SndBuf != 0 {
		t.Errorf("irrelevant knobs kept: stride=%v sndbuf=%v", min.Stride, min.SndBuf)
	}
	if min.CC != "cubic" {
		t.Errorf("cc not minimized: %q", min.CC)
	}
	if min.Duration >= junk.Duration {
		t.Errorf("duration not reduced: %v", min.Duration)
	}
	if min.Inject.Kind != core.InjectCorruptInflight {
		t.Errorf("the actual defect was shrunk away: %+v", min.Inject)
	}

	// Refresh the committed corpus entry from this shrink when asked:
	//   MOBBR_UPDATE_CORPUS=1 go test ./internal/chaos -run TestShrinkKnownBad
	if os.Getenv("MOBBR_UPDATE_CORPUS") != "" {
		e, err := NewEntry(0, min, minOut)
		if err != nil {
			t.Fatal(err)
		}
		path, err := WriteEntry("testdata/corpus", e)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("corpus entry updated: %s", path)
	}
}

// TestCorpusReplay replays every committed minimized reproducer: each must
// still fail with the exact class/rule recorded at discovery time. This is
// the regression net — a fixed bug's entry stays here so the bug cannot
// return silently.
func TestCorpusReplay(t *testing.T) {
	entries, err := loadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty; regenerate with MOBBR_UPDATE_CORPUS=1 go test ./internal/chaos -run TestShrinkKnownBad")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Filename(), func(t *testing.T) {
			out, err := replayEntry(e, Budgets{})
			if err != nil {
				t.Fatal(err)
			}
			if out.Signature() != e.Signature() {
				t.Fatalf("replay signature %q, want %q\nrepro: %s", out.Signature(), e.Signature(), e.Repro)
			}
		})
	}
}

// TestCorpusRoundTrip: write → load → replay in a scratch directory.
func TestCorpusRoundTrip(t *testing.T) {
	spec := core.Spec{CC: "cubic", Conns: 1, Duration: 300 * time.Millisecond,
		Inject: core.Inject{Kind: core.InjectCorruptInflight, At: 100 * time.Millisecond}}
	out := Run(spec, Budgets{})
	if out.OK {
		t.Fatal("seed spec unexpectedly healthy")
	}
	e, err := NewEntry(99, spec, out)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteEntry(dir, e); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Signature() != e.Signature() {
		t.Fatalf("round trip lost the entry: %+v", loaded)
	}
	replayed, err := replayEntry(loaded[0], Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Signature() != out.Signature() {
		t.Fatalf("replay signature %q, want %q", replayed.Signature(), out.Signature())
	}
}

// TestExploreWindowClean pins the CI soak's seed window: these seeds were
// verified clean, so any failure here is a fresh regression (or a
// generator change — rebase the window deliberately if so).
func TestExploreWindowClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	findings, err := Explore(ExploreOpts{N: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("seed %d: %s\nrepro: %s", f.GenSeed, f.Outcome.Signature(), f.Repro)
	}
}

// loadCorpus reads every *.json entry under dir in name order. A missing
// directory is an empty corpus, not an error.
func loadCorpus(dir string) ([]Entry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []Entry
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("chaos: corpus %s: %w", p, err)
		}
		if e.V != entryVersion {
			return nil, fmt.Errorf("chaos: corpus %s: entry version %d, want %d", p, e.V, entryVersion)
		}
		out = append(out, e)
	}
	return out, nil
}

// replayEntry decodes and re-runs a corpus entry under the budgets; the
// caller compares the outcome's signature against the entry's.
func replayEntry(e Entry, b Budgets) (Outcome, error) {
	spec, err := core.DecodeSpec(e.Spec)
	if err != nil {
		return Outcome{}, fmt.Errorf("chaos: corpus entry %s: %w", e.Filename(), err)
	}
	return Run(spec, b), nil
}
