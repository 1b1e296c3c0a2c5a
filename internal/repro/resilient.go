// Fault-tolerant grid execution: one broken point must never cost the rest
// of a long sweep. The resilient runner contains per-point panics and
// deadline blowouts into structured failure rows, checkpoints every
// finished point's archive record to a JSONL journal, resumes a killed
// grid from that journal with the same tables and archive, and retries
// infra-class failures (wall deadline on a loaded machine) with backoff —
// never deterministic simulation errors, which would reproduce exactly.
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
	// line describing the grid, then each finished point's obs.PointRecord,
	// written as the point completes.
	Journal string
	// Resume skips points already recorded in Journal. The records read
	// back print and archive byte-identically to the original run's. A
	// missing journal file starts fresh.
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
// returned error reports journal I/O and spec encoding problems only —
// per-point outcomes, including failures, are in the rows.
func RunExperimentResilient(e Experiment, opts RunOpts) ([]Row, error) {
	opts = opts.withDefaults()
	rows := make([]Row, len(e.Points))
	done := make([]bool, len(e.Points))
	var jw *journalWriter
	if opts.Journal != "" {
		var keep int64
		if opts.Resume {
			// A missing journal is a fresh start.
			data, err := os.ReadFile(opts.Journal)
			var recs []obs.PointRecord
			if err == nil {
				recs, keep, err = parseJournal(data, e, opts)
			}
			if err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("repro: journal %s: %w", opts.Journal, err)
			}
			for _, rec := range recs {
				rows[rec.I] = Row{Point: e.Points[rec.I], PointRecord: rec}
				if rec.Failure == nil {
					rows[rec.I].Seeds = max(opts.Seeds, 1)
				}
				done[rec.I] = true
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
		var err error
		if rows[i], err = runPointResilient(e.Points[i], i, opts); err != nil {
			return err
		}
		if opts.Progress != nil {
			opts.Progress.PointDone(w, i, rows[i].Events, rows[i].Failure != nil)
		}
		if jw != nil {
			return jw.append(rows[i].PointRecord)
		}
		return nil
	})
	if err != nil {
		return rows, fmt.Errorf("repro %s: %w", e.ID, err)
	}
	return rows, nil
}

// retryBackoff is the first retry's delay; it doubles per attempt.
const retryBackoff = 100 * time.Millisecond

// runPointResilient runs grid point i to a Row whose record is complete:
// the spec is encoded once, up front, and infra-class failures are retried
// with doubling backoff before a terminal failure folds into Failure. The
// error is the spec's encoding only.
func runPointResilient(p Point, i int, opts RunOpts) (row Row, err error) {
	spec := pointSpec(p, opts.Dur, opts.Telemetry)
	wire, err := core.EncodeSpec(spec)
	if err != nil {
		return Row{}, fmt.Errorf("point %s: %w", p.Label, err)
	}
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		if row, err = runPointAttempt(p, spec, opts.Seeds); err == nil {
			break
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
		row = Row{Point: p, PointRecord: obs.PointRecord{Failure: &obs.Failure{
			Class:    class,
			Rule:     rule,
			Msg:      err.Error(),
			Repro:    repro,
			Attempts: attempt,
		}}}
		break
	}
	row.V, row.I, row.Label, row.Spec = obs.Version, i, p.Label, wire
	return row, nil
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

// journalVersion guards the checkpoint format (3: each entry is the
// point's obs.PointRecord, so an obs.Version bump must bump it too).
const journalVersion = 3

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

// parseJournal returns a journal's point records and the byte length of
// its valid prefix — where the resumed run appends. Empty data is a fresh
// start (length 0). Only newline-terminated lines count, so a torn tail
// (the writer died mid-entry) is dropped and that point re-runs; a
// malformed line followed by further ones is corruption, as are a record
// that does not re-encode to its own bytes and a point recorded twice.
func parseJournal(data []byte, e Experiment, opts RunOpts) ([]obs.PointRecord, int64, error) {
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail after the final newline
	if len(lines) == 0 {
		return nil, 0, nil
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, 0, fmt.Errorf("bad header: %w", err)
	}
	if want := headerFor(e, opts); hdr != want {
		return nil, 0, fmt.Errorf("written by a different run configuration (journal %+v, this run %+v)", hdr, want)
	}
	keep := int64(len(lines[0]))
	recs := make([]obs.PointRecord, 0, len(lines)-1)
	seen := make([]bool, len(e.Points))
	for n, line := range lines[1:] {
		var rec obs.PointRecord
		err := json.Unmarshal(line, &rec)
		if err == nil {
			var enc []byte
			if enc, err = json.Marshal(rec); err == nil && !bytes.Equal(enc, line[:len(line)-1]) {
				err = errors.New("record does not re-encode to its own bytes")
			}
		}
		if err != nil {
			if n == len(lines)-2 {
				break // torn final write: re-run that point
			}
			return nil, 0, fmt.Errorf("entry %d: %w", n, err)
		}
		switch {
		case rec.I < 0 || rec.I >= len(e.Points):
			return nil, 0, fmt.Errorf("entry %d: point index %d out of range", n, rec.I)
		case rec.Label != e.Points[rec.I].Label:
			return nil, 0, fmt.Errorf("entry %d: label %q does not match point %d (%q)", n, rec.Label, rec.I, e.Points[rec.I].Label)
		case seen[rec.I]:
			return nil, 0, fmt.Errorf("entry %d: point %d (%q) is recorded twice", n, rec.I, rec.Label)
		}
		seen[rec.I] = true
		recs = append(recs, rec)
		keep += int64(len(line))
	}
	return recs, keep, nil
}

// journalWriter appends records under a lock (grid points finish on
// arbitrary workers). Each entry is one Write call, so a crash tears at
// most the final line.
type journalWriter struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens the checkpoint for appending after its first keep
// bytes (parseJournal's valid prefix), cutting off a torn tail so the next
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

func (jw *journalWriter) append(rec obs.PointRecord) error {
	data, err := json.Marshal(rec)
	if err == nil {
		jw.mu.Lock()
		_, err = jw.f.Write(append(data, '\n'))
		jw.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("checkpoint journal: %w", err)
	}
	return nil
}

func (jw *journalWriter) close() error { return jw.f.Close() }
