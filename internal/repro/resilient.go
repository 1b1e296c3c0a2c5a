// Fault-tolerant grid execution: one broken point must never cost the rest
// of a long sweep. The resilient runner contains per-point panics and
// deadline blowouts into structured failure rows, checkpoints every
// finished point to a JSONL journal, resumes a killed grid byte-identically
// from that journal, and retries infra-class failures (wall deadline on a
// loaded machine) with backoff — never deterministic simulation errors,
// which would reproduce exactly.
package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/obs"
	"mobbr/internal/telemetry"
)

// RunOpts configures a resilient grid run.
type RunOpts struct {
	// Dur is the simulated transfer time per run (default DefaultDuration).
	Dur time.Duration
	// Seeds is the seed count per point, at least 1.
	Seeds int
	// Telemetry is applied to every run.
	Telemetry telemetry.Config
	// Workers caps the points running in parallel (0 = one per CPU).
	Workers int
	// Journal is the JSONL checkpoint path ("" = no journal): a header
	// line describing the grid, then one entry per finished point, written
	// as each point completes.
	Journal string
	// Resume skips points already recorded in Journal. The reconstructed
	// rows print byte-identically to the original run's. A missing journal
	// file starts fresh.
	Resume bool
	// Retries is how many extra attempts an infra-class failure (wall
	// deadline) gets before its row records the failure. Deterministic
	// failures are never retried.
	Retries int
	// Progress, when set, receives per-point lifecycle callbacks (live
	// progress reporting). Journal-resumed points report PointDone without a
	// preceding PointStart. Never influences execution.
	Progress Observer
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Dur <= 0 {
		o.Dur = DefaultDuration
	}
	return o
}

// WriteFailures prints every failed row — class, first message line and the
// one-command repro line — and returns how many there were. Containment is
// the runner's only behaviour, so this is what keeps a broken point loud.
func WriteFailures(w io.Writer, e Experiment, rows []Row) int {
	n := 0
	for _, r := range rows {
		if r.Failure == nil {
			continue
		}
		n++
		msg, _, _ := strings.Cut(r.Failure.Msg, "\n")
		fmt.Fprintf(w, "FAILED %s/%s: %s: %s\n  repro: %s\n",
			e.ID, r.Point.Label, r.Failure.Class, msg, r.Failure.Repro)
	}
	return n
}

// RunExperimentResilient executes the grid with per-point fault
// containment: a panic, invariant violation or budget trip in one point
// becomes that row's Failure while every other point still runs. The
// returned error reports journal I/O problems only — per-point outcomes,
// including failures, are in the rows.
func RunExperimentResilient(e Experiment, opts RunOpts) ([]Row, error) {
	opts = opts.withDefaults()
	rows := make([]Row, len(e.Points))
	done := make([]bool, len(e.Points))
	var jw *journalWriter
	if opts.Journal != "" {
		var keep int64
		if opts.Resume {
			entries, n, err := readJournal(opts.Journal, e, opts)
			if err != nil {
				return nil, err
			}
			keep = n
			for _, ent := range entries {
				rows[ent.I] = ent.Row
				rows[ent.I].Point = e.Points[ent.I]
				done[ent.I] = true
			}
		}
		var err error
		jw, err = openJournal(opts.Journal, e, opts, keep)
		if err != nil {
			return nil, err
		}
		defer jw.close()
	}
	if opts.Progress != nil {
		opts.Progress.BeginExperiment(e.ID, len(e.Points))
		for i, d := range done {
			if d {
				opts.Progress.PointDone(0, i, rows[i].Events, rows[i].Failure != nil)
			}
		}
	}
	err := ForEachW(len(e.Points), opts.Workers, func(w, i int) error {
		if done[i] {
			return nil
		}
		if opts.Progress != nil {
			opts.Progress.PointStart(w, i, e.Points[i].Label)
		}
		rows[i] = runPointResilient(e.Points[i], opts)
		if opts.Progress != nil {
			opts.Progress.PointDone(w, i, rows[i].Events, rows[i].Failure != nil)
		}
		if jw != nil {
			return jw.append(journalEntry{I: i, Label: e.Points[i].Label, Row: rows[i]})
		}
		return nil
	})
	if err != nil {
		return rows, fmt.Errorf("repro %s: checkpoint journal: %w", e.ID, err)
	}
	return rows, nil
}

// retryBackoff is the first retry's delay; it doubles per attempt.
const retryBackoff = 100 * time.Millisecond

// runPointResilient runs one point to a Row, retrying infra-class failures
// with doubling backoff and folding any terminal failure into Row.Failure.
func runPointResilient(p Point, opts RunOpts) Row {
	spec := pointSpec(p, opts.Dur, opts.Telemetry)
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		row, err := runPointAttempt(p, spec, opts.Seeds)
		if err == nil {
			return row
		}
		class, rule := classifyPointFailure(err)
		if core.InfraFailure(class) && attempt <= opts.Retries {
			time.Sleep(backoff)
			backoff *= 2
			continue
		}
		repro := core.ReproLine(spec)
		var re *core.RunError
		if errors.As(err, &re) {
			// The exact failing spec (exact seed) when the run got far
			// enough to know it.
			repro = core.ReproLine(re.Spec)
		}
		return Row{Point: p, Failure: &obs.Failure{
			Class:    class,
			Rule:     rule,
			Msg:      err.Error(),
			Repro:    repro,
			Attempts: attempt,
		}}
	}
}

// runPointAttempt is one guarded execution of a point: a panic anywhere in
// the simulation surfaces as a *panicError instead of killing the grid.
func runPointAttempt(p Point, spec core.Spec, seeds int) (row Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r}
		}
	}()
	agg, err := core.RunSeeds(spec, seeds)
	if err != nil {
		return Row{}, err
	}
	return rowFromAggregate(p, agg), nil
}

// panicError carries a recovered panic's value through the
// error-classification path; the point's repro line re-raises the panic with
// its stack.
type panicError struct {
	val any
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// classifyPointFailure extends core.ClassifyFailure with the panic class
// only runners can observe.
func classifyPointFailure(err error) (class, rule string) {
	var pe *panicError
	if errors.As(err, &pe) {
		return core.FailPanic, ""
	}
	return core.ClassifyFailure(err)
}

// journalVersion guards the checkpoint format (2: entries embed Row).
const journalVersion = 2

// journalHeader is the journal's first line: enough of the run
// configuration to refuse resuming under different settings (different
// duration or seeds would silently mix incompatible rows; the title tells
// one replayed trace from another).
type journalHeader struct {
	V       int    `json:"v"`
	Exp     string `json:"exp"`
	Title   string `json:"title"`
	Dur     string `json:"dur"`
	Seeds   int    `json:"seeds"`
	Points  int    `json:"points"`
	Trace   bool   `json:"trace,omitempty"`
	Metrics bool   `json:"metrics,omitempty"`
	Profile bool   `json:"profile,omitempty"`
}

func headerFor(e Experiment, opts RunOpts) journalHeader {
	return journalHeader{
		V:       journalVersion,
		Exp:     e.ID,
		Title:   e.Title,
		Dur:     opts.Dur.String(),
		Seeds:   opts.Seeds,
		Points:  len(e.Points),
		Trace:   opts.Telemetry.Trace,
		Metrics: opts.Telemetry.Metrics,
		Profile: opts.Telemetry.Profile,
	}
}

// journalEntry is one finished point: its grid index and label (checked
// against the grid on resume) around the row's own JSON form.
type journalEntry struct {
	I     int    `json:"i"`
	Label string `json:"label"`
	Row
}

// readJournal loads and validates an existing journal, returning its
// entries and the byte length of its valid prefix — where the resumed run
// appends. A missing or empty file is a fresh start (length 0). Only
// newline-terminated lines count, so a torn tail (the writer died
// mid-entry) is dropped and that point re-runs; a malformed line followed
// by further ones means corruption and fails.
func readJournal(path string, e Experiment, opts RunOpts) ([]journalEntry, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("repro: journal %s: %w", path, err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail after the final newline
	if len(lines) == 0 {
		return nil, 0, nil
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, 0, fmt.Errorf("repro: journal %s: bad header: %w", path, err)
	}
	if want := headerFor(e, opts); hdr != want {
		return nil, 0, fmt.Errorf("repro: journal %s was written by a different run configuration (journal %+v, this run %+v)", path, hdr, want)
	}
	keep := int64(len(lines[0]))
	var entries []journalEntry
	for n, line := range lines[1:] {
		var ent journalEntry
		if err := json.Unmarshal(line, &ent); err != nil {
			if n == len(lines)-2 {
				break // torn final write: re-run that point
			}
			return nil, 0, fmt.Errorf("repro: journal %s: entry %d: %w", path, n, err)
		}
		if ent.I < 0 || ent.I >= len(e.Points) {
			return nil, 0, fmt.Errorf("repro: journal %s: entry %d: point index %d out of range", path, n, ent.I)
		}
		if ent.Label != e.Points[ent.I].Label {
			return nil, 0, fmt.Errorf("repro: journal %s: entry %d: label %q does not match point %d (%q)", path, n, ent.Label, ent.I, e.Points[ent.I].Label)
		}
		entries = append(entries, ent)
		keep += int64(len(line))
	}
	return entries, keep, nil
}

// journalWriter appends entries under a lock (grid points finish on
// arbitrary workers). Each entry is one Write call, so a crash tears at
// most the final line.
type journalWriter struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens the checkpoint for appending after its first keep
// bytes (readJournal's valid prefix), cutting off a torn tail so the next
// entry starts on its own line. keep == 0 starts a fresh journal: the file
// is emptied and a header written.
func openJournal(path string, e Experiment, opts RunOpts, keep int64) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repro: journal %s: %w", path, err)
	}
	err = f.Truncate(keep)
	if err == nil && keep == 0 {
		var data []byte
		if data, err = json.Marshal(headerFor(e, opts)); err == nil {
			_, err = f.Write(append(data, '\n'))
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("repro: journal %s: %w", path, err)
	}
	return &journalWriter{f: f}, nil
}

func (jw *journalWriter) append(ent journalEntry) error {
	data, err := json.Marshal(ent)
	if err != nil {
		return err
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	_, err = jw.f.Write(append(data, '\n'))
	return err
}

func (jw *journalWriter) close() error { return jw.f.Close() }
