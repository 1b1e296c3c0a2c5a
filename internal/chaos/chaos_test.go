package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
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
	if !ok.OK || ok.Signature() != "ok" {
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

// TestShrinkClearsEveryKnob: a failing spec with every optional knob set
// shrinks to one with each knob cleared, still failing with the same
// signature.
func TestShrinkClearsEveryKnob(t *testing.T) {
	on := true
	spec := core.Spec{
		Device: device.Pixel6, CPU: device.HighEnd, CC: "cubic", Conns: 3,
		Mobility: genMobility(rand.New(rand.NewSource(1)), 150*time.Millisecond),
		Duration: 150 * time.Millisecond, Warmup: 30 * time.Millisecond, Network: core.WiFi,
		TC:     netem.TC{Delay: time.Millisecond},
		Stride: 2, PacingOverride: &on, HardwarePacing: true, FixedPacingRate: 200 * units.Mbps,
		FixedCwnd: 40, DisableModel: true, SndBuf: 512 * units.KB, Interval: 50 * time.Millisecond,
		Seed: 7, MaxEvents: 40_000_000, MaxStall: 1_000_000, MaxWallClock: 20 * time.Second,
		Inject: core.Inject{Kind: core.InjectCorruptInflight, At: 75 * time.Millisecond},
	}
	if err := spec.Validate(); err != nil || spec.Mobility == nil {
		t.Fatalf("seed spec: %v, mobility %v", err, spec.Mobility)
	}
	sig := Run(spec, Budgets{}).Signature()
	if sig != "violation/inflight/counter" {
		t.Fatalf("seed spec signature %q", sig)
	}
	min := Shrink(spec, Budgets{}, sig)
	if got := Run(min, Budgets{}).Signature(); got != sig {
		t.Fatalf("shrunk spec signature %q, want %q", got, sig)
	}
	want := core.Spec{CC: "cubic", Conns: 1, Duration: spec.Duration, Warmup: spec.Warmup, Seed: 1, Inject: spec.Inject}
	if !reflect.DeepEqual(min, want) {
		t.Errorf("shrunk to\n%+v\nwant every knob cleared:\n%+v", min, want)
	}
}

// TestExploreReportsFindings runs the soak over generators that fail: a
// deterministic failure is shrunk and written to the corpus, a wall-clock
// failure is written as generated, and a corpus that cannot be written is
// an error.
func TestExploreReportsFindings(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	bad := func(int64) core.Spec { return junkSpec() }
	findings, err := explore(ExploreOpts{N: 1, Seed: 5, Corpus: dir, Log: &log}, bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("%d findings, want 1", len(findings))
	}
	f := findings[0]
	if f.GenSeed != 5 || f.Outcome.Signature() != "violation/inflight/counter" || f.Spec.Conns != 1 ||
		f.Repro != core.ReproLine(f.Spec) {
		t.Errorf("finding = seed %d, %s, conns %d, repro %s", f.GenSeed, f.Outcome.Signature(), f.Spec.Conns, f.Repro)
	}
	if f.Path != filepath.Join(dir, "violation-inflight-counter-seed5.json") {
		t.Errorf("corpus path %q", f.Path)
	}
	if _, err := os.Stat(f.Path); err != nil {
		t.Error(err)
	}
	for _, line := range []string{
		"chaos: seed 5: violation/inflight/counter — shrinking\n",
		"chaos: seed 5: minimized reproducer written to " + f.Path + "\n",
		"chaos: 1 specs explored (seeds 5..5), 1 findings\n",
	} {
		if !strings.Contains(log.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, log.String())
		}
	}

	log.Reset()
	slow := func(int64) core.Spec {
		s := junkSpec()
		s.Inject, s.MaxWallClock = core.Inject{}, time.Nanosecond
		return s
	}
	findings, err = explore(ExploreOpts{N: 1, Seed: 1, Corpus: dir, Log: &log}, slow)
	if err != nil || len(findings) != 1 {
		t.Fatalf("wall-clock generator: %d findings, err %v", len(findings), err)
	}
	if f := findings[0]; !core.InfraFailure(f.Outcome.Class) || !reflect.DeepEqual(f.Spec, slow(1)) ||
		f.Path != filepath.Join(dir, f.Outcome.Class+"-seed1.json") {
		t.Errorf("wall-clock finding %s was shrunk or misfiled at %q: %+v", f.Outcome.Signature(), f.Path, f.Spec)
	}
	if !strings.Contains(log.String(), "(infra-class, not shrunk)") {
		t.Errorf("log lacks the infra-class line:\n%s", log.String())
	}

	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := explore(ExploreOpts{N: 1, Seed: 1, Corpus: filepath.Join(blocker, "corpus")}, bad); err == nil ||
		!strings.Contains(err.Error(), "chaos: corpus dir: ") {
		t.Errorf("corpus under a regular file: err %v", err)
	}
	// The entry's file name taken by a directory.
	if _, err := explore(ExploreOpts{N: 1, Seed: 1, Corpus: filepath.Dir(f.Path)}, func(int64) core.Spec {
		if err := os.Mkdir(filepath.Join(dir, "violation-inflight-counter-seed1.json"), 0o755); err != nil {
			t.Fatal(err)
		}
		return junkSpec()
	}); err == nil || !strings.Contains(err.Error(), "chaos: writing corpus entry: ") {
		t.Errorf("entry name taken by a directory: err %v", err)
	}
}
