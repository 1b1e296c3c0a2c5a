package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/faults"
	"mobbr/internal/mobility"
	"mobbr/internal/obs"
	"mobbr/internal/telemetry"
)

// chaosGrid is a small grid with two healthy points and two that fail in
// different deterministic ways (a panic inside an engine callback, an
// invariant violation caught by the checker).
func chaosGrid() Experiment {
	ok1 := core.Spec{CC: "cubic", Conns: 1}
	boom := core.Spec{CC: "cubic", Conns: 1,
		Inject: core.Inject{Kind: core.InjectPanic, At: 100 * time.Millisecond}}
	ok2 := core.Spec{CC: "bbr", Conns: 2}
	corrupt := core.Spec{CC: "cubic", Conns: 1, Check: true,
		Inject: core.Inject{Kind: core.InjectCorruptInflight, At: 100 * time.Millisecond}}
	return Experiment{
		ID:    "chaosgrid",
		Title: "resilient-runner test grid",
		Points: []Point{
			{Label: "healthy cubic", Spec: ok1},
			{Label: "panics mid-run", Spec: boom},
			{Label: "healthy bbr", Spec: ok2},
			{Label: "corrupts inflight", Spec: corrupt},
		},
	}
}

var chaosOpts = RunOpts{
	Dur:     400 * time.Millisecond,
	Seeds:   1,
	Workers: 2,
}

// TestResilientContainsFailures: the two broken points must each produce a
// structured failure row while both healthy points still complete.
func TestResilientContainsFailures(t *testing.T) {
	rows, err := RunExperimentResilient(chaosGrid(), chaosOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, i := range []int{0, 2} {
		if rows[i].Failure != nil {
			t.Errorf("healthy point %d failed: %+v", i, rows[i].Failure)
		}
		if rows[i].GoodputMbps <= 0 {
			t.Errorf("healthy point %d has no goodput", i)
		}
	}
	p := rows[1].Failure
	if p == nil || p.Class != core.FailPanic {
		t.Fatalf("panic point failure = %+v, want class %q", p, core.FailPanic)
	}
	if p.Attempts != 1 {
		t.Errorf("deterministic panic retried: %d attempts", p.Attempts)
	}
	if !strings.Contains(p.Repro, "-run-spec") {
		t.Errorf("panic failure lacks a repro line: %q", p.Repro)
	}
	v := rows[3].Failure
	if v == nil || v.Class != core.FailViolation {
		t.Fatalf("violation point failure = %+v, want class %q", v, core.FailViolation)
	}
	if v.Rule != "inflight/counter" {
		t.Errorf("violation rule = %q, want inflight/counter", v.Rule)
	}
	if !strings.Contains(v.Repro, "-run-spec") || !strings.Contains(v.Msg, "repro:") {
		t.Errorf("violation failure lacks repro: repro=%q msg=%q", v.Repro, v.Msg)
	}
}

// TestResilientResumeByteIdentical is the checkpoint gate: kill a grid
// after two points, resume from the journal, and the printed table must be
// byte-identical to an uninterrupted run's — including the failure rows of
// the chaos grid and the recovery columns and per-segment breakdown of the
// recovery and trace grids, which ride the same journal.
func TestResilientResumeByteIdentical(t *testing.T) {
	for _, e := range append([]Experiment{chaosGrid()}, mobileGrids(t)...) {
		dir := t.TempDir()
		full := chaosOpts
		full.Journal = filepath.Join(dir, "full.jsonl")
		fullRows, err := RunExperimentResilient(e, full)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		Print(&want, e, fullRows)

		// Simulate a mid-grid kill: keep the header and the first two entries.
		data, err := os.ReadFile(full.Journal)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) != 1+len(e.Points) {
			t.Fatalf("%s: journal has %d lines, want %d", e.ID, len(lines), 1+len(e.Points))
		}
		torn := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(torn, []byte(strings.Join(lines[:3], "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}

		resume := chaosOpts
		resume.Journal = torn
		resume.Resume = true
		resumedRows, err := RunExperimentResilient(e, resume)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		Print(&got, e, resumedRows)
		if got.String() != want.String() {
			t.Fatalf("%s: resumed output diverged:\n--- full\n%s--- resumed\n%s", e.ID, want.String(), got.String())
		}

		// Only the missing points may have been re-run and appended.
		after, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(strings.Split(strings.TrimRight(string(after), "\n"), "\n")); n != 1+len(e.Points) {
			t.Fatalf("%s: resumed journal has %d lines, want %d (completed points must be skipped)", e.ID, n, 1+len(e.Points))
		}
	}
}

// TestResilientResumeTornEntry: a torn final line (writer died mid-entry)
// re-runs that point instead of failing the resume, and is cut off before
// the re-run point is appended. Appending straight after the fragment glued
// the new entry onto it, which the first resume tolerated (it was the final
// line) and the second refused as mid-file corruption.
func TestResilientResumeTornEntry(t *testing.T) {
	e := chaosGrid()
	opts := chaosOpts
	opts.Workers = 1 // entries land in point order, so the last two lines are points 2 and 3
	opts.Journal = filepath.Join(t.TempDir(), "j.jsonl")
	fullRows, err := RunExperimentResilient(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	Print(&want, e, fullRows)
	data, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last entry and tear the one before it: two points to re-run,
	// so a valid entry follows whatever the first resume does with the tear.
	lines := strings.SplitAfter(string(data), "\n")
	torn := strings.Join(lines[:len(lines)-2], "")
	if err := os.WriteFile(opts.Journal, []byte(torn[:len(torn)-17]), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	for _, pass := range []string{"first", "second"} {
		rows, err := RunExperimentResilient(e, opts)
		if err != nil {
			t.Fatalf("%s resume: %v", pass, err)
		}
		var got bytes.Buffer
		Print(&got, e, rows)
		if got.String() != want.String() {
			t.Fatalf("%s resume diverged:\n--- full\n%s--- resumed\n%s", pass, want.String(), got.String())
		}
	}
	after, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(after), "\n"); n != 1+len(e.Points) {
		t.Fatalf("journal has %d lines after two resumes, want %d:\n%s", n, 1+len(e.Points), after)
	}
}

// TestResilientMalformedMiddleEntry: only a torn *tail* is forgiven. A
// malformed line with entries after it is corruption and must fail loudly.
func TestResilientMalformedMiddleEntry(t *testing.T) {
	e := chaosGrid()
	opts := chaosOpts
	opts.Journal = filepath.Join(t.TempDir(), "j.jsonl")
	if _, err := RunExperimentResilient(e, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = lines[2][:len(lines[2])/2] + "\n"
	if err := os.WriteFile(opts.Journal, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	if _, err := RunExperimentResilient(e, opts); err == nil || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("malformed middle entry accepted: %v", err)
	}
}

// mobileGrids are the two grids whose points pin their own timeline and add
// interval-series metrics: trimmed recovery and a short synthesized trace.
func mobileGrids(t *testing.T) []Experiment {
	t.Helper()
	rec := Recovery()
	rec.Points = rec.Points[:4] // bbr/bbr2/cubic blackout + bbr handover
	tr, err := mobility.Synthesize(mobility.Train, 2*time.Second, mobility.DefaultTick, 7)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := NewTraceExperiment(tr)
	if err != nil {
		t.Fatal(err)
	}
	trace.Points = trace.Points[:4]
	return []Experiment{rec, trace}
}

// TestMobileGridsContainPanic: one panicking recovery or trace point becomes
// a FAILED row whose repro line decodes back to a valid spec, while every
// other point of the grid completes.
func TestMobileGridsContainPanic(t *testing.T) {
	for _, e := range mobileGrids(t) {
		e.Points[1].Spec.Inject = core.Inject{Kind: core.InjectPanic, At: 100 * time.Millisecond}
		rows, err := RunExperimentResilient(e, RunOpts{Seeds: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if i != 1 && (r.Failure != nil || r.GoodputMbps <= 0) {
				t.Errorf("%s/%s: healthy point did not complete: %+v", e.ID, r.Point.Label, r.Failure)
			}
		}
		f := rows[1].Failure
		if f == nil || f.Class != core.FailPanic {
			t.Fatalf("%s: panic point failure = %+v, want class %q", e.ID, f, core.FailPanic)
		}
		const marker = "-run-spec '"
		i := strings.Index(f.Repro, marker)
		if i < 0 {
			t.Fatalf("%s: repro line %q has no -run-spec payload", e.ID, f.Repro)
		}
		spec, err := core.DecodeSpec([]byte(strings.TrimSuffix(f.Repro[i+len(marker):], "'")))
		if err != nil {
			t.Fatalf("%s: repro payload does not decode: %v", e.ID, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: repro payload does not validate: %v", e.ID, err)
		}
		if spec.Inject.Kind != core.InjectPanic || spec.Duration != e.Points[1].Spec.Duration {
			t.Errorf("%s: repro payload is not the failing spec: inject %q, duration %v", e.ID, spec.Inject.Kind, spec.Duration)
		}
		var out bytes.Buffer
		Print(&out, e, rows)
		if !strings.Contains(out.String(), " FAILED panic\n") {
			t.Errorf("%s: table lacks the FAILED row:\n%s", e.ID, out.String())
		}
	}
}

// TestResumeArchiveInterplay: archiving a journal-resumed grid must produce
// exactly the same per-point artifacts as archiving the uninterrupted run —
// digests, queue depths, trace segments and failures included, no
// duplicated, missing, or orphaned files — whichever prefix of the journal
// survived the kill; and re-archiving a smaller grid into the same
// directory must remove the stale artifacts.
func TestResumeArchiveInterplay(t *testing.T) {
	opts := chaosOpts
	opts.Telemetry = telemetry.Config{Metrics: true}
	archive := func(root string, e Experiment, rows []Row) map[string][]byte {
		t.Helper()
		run, err := BuildExperimentRun(e, rows, ArchiveOpts{Dur: opts.Dur, Seeds: opts.Seeds, Telemetry: opts.Telemetry})
		if err != nil {
			t.Fatal(err)
		}
		pdir := filepath.Join(root, e.ID, "points")
		if err := obs.WriteRun(filepath.Dir(pdir), run.Manifest, run.Points); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(pdir)
		if err != nil {
			t.Fatal(err)
		}
		pts := map[string][]byte{}
		for _, f := range files {
			if pts[f.Name()], err = os.ReadFile(filepath.Join(pdir, f.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return pts
	}
	for _, e := range []Experiment{chaosGrid(), mobileGrids(t)[1]} {
		dir := t.TempDir()
		full := opts
		full.Journal = filepath.Join(dir, "full.jsonl")
		fullRows, err := RunExperimentResilient(e, full)
		if err != nil {
			t.Fatal(err)
		}
		fullDir := filepath.Join(dir, "runFull")
		want := archive(fullDir, e, fullRows)
		if len(want) != len(e.Points) {
			t.Fatalf("%s: full archive holds %d artifacts, want %d", e.ID, len(want), len(e.Points))
		}
		for name, data := range want {
			failed := strings.Contains(string(data), `"failure": {`)
			if !failed && (!strings.Contains(string(data), `"digest": {`) || !strings.Contains(string(data), `"max_pending": `)) {
				t.Errorf("%s/%s: a metrics run archived no digest or queue depth:\n%s", e.ID, name, data)
			}
			if e.Compiled != nil && !failed && !strings.Contains(string(data), `"segments": [`) {
				t.Errorf("%s/%s: a trace point archived no segments:\n%s", e.ID, name, data)
			}
		}

		// Kill the grid after every number of finished points, resume,
		// archive the resumed rows.
		data, err := os.ReadFile(full.Journal)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n") // header, one line per point, ""
		for kept := 0; kept <= len(e.Points); kept++ {
			resume := opts
			resume.Journal = filepath.Join(dir, fmt.Sprintf("cut%d.jsonl", kept))
			resume.Resume = true
			if err := os.WriteFile(resume.Journal, []byte(strings.Join(lines[:1+kept], "")), 0o644); err != nil {
				t.Fatal(err)
			}
			rows, err := RunExperimentResilient(e, resume)
			if err != nil {
				t.Fatal(err)
			}
			got := archive(filepath.Join(dir, fmt.Sprintf("runCut%d", kept)), e, rows)
			if len(got) != len(want) {
				t.Fatalf("%s, %d kept: resumed archive holds %d artifacts, want %d", e.ID, kept, len(got), len(want))
			}
			for name, a := range want {
				if b := got[name]; !bytes.Equal(a, b) {
					t.Errorf("%s, %d kept: %s differs between full and resumed archives:\n--- full\n%s--- resumed\n%s",
						e.ID, kept, name, a, b)
				}
			}
		}

		// Re-archiving a shrunk grid into the same run directory must not
		// orphan the old artifacts.
		small := e
		small.Points = e.Points[:2]
		if left := archive(fullDir, small, fullRows[:2]); len(left) != 2 {
			t.Fatalf("%s: stale artifacts survived re-archive: %d files", e.ID, len(left))
		}
	}
}

// unwired is a fault event the spec codec has no wire form for.
type unwired struct{ faults.Blackout }

// TestUnencodableSpecFailsTheGrid: a point whose spec cannot be encoded
// has no record to journal or archive, so the grid fails loudly instead of
// printing a row it cannot keep.
func TestUnencodableSpecFailsTheGrid(t *testing.T) {
	s := core.Spec{CC: "cubic", Conns: 1}
	s.Faults.Events = []faults.Event{unwired{faults.Blackout{Start: 100 * time.Millisecond, Duration: 50 * time.Millisecond}}}
	e := Experiment{ID: "unwired", Points: []Point{{Label: "no wire form", Spec: s}}}
	if _, err := RunExperimentResilient(e, chaosOpts); err == nil || !strings.Contains(err.Error(), "repro unwired: point no wire form: core: fault event repro.unwired has no wire form") {
		t.Fatalf("unencodable spec: err %v", err)
	}
}

// TestResilientResumeRejectsMismatchedConfig: resuming under different
// settings must refuse rather than mix incompatible rows.
func TestResilientResumeRejectsMismatchedConfig(t *testing.T) {
	e := chaosGrid()
	opts := chaosOpts
	opts.Journal = filepath.Join(t.TempDir(), "j.jsonl")
	if _, err := RunExperimentResilient(e, opts); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.Resume = true
	bad.Seeds = 2
	if _, err := RunExperimentResilient(e, bad); err == nil ||
		!strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("mismatched resume accepted: %v", err)
	}
}

// TestResilientRetriesInfraOnly: the wall deadline (machine-dependent) is
// retried with backoff; deterministic failures are not.
func TestResilientRetriesInfraOnly(t *testing.T) {
	slow := core.Spec{CC: "cubic", Conns: 1, MaxWallClock: time.Nanosecond}
	e := Experiment{ID: "infra", Points: []Point{{Label: "wall-clock", Spec: slow}}}
	opts := chaosOpts
	opts.Retries = 2
	rows, err := RunExperimentResilient(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := rows[0].Failure
	if f == nil || f.Class != core.FailWallClock {
		t.Fatalf("failure = %+v, want class %q", f, core.FailWallClock)
	}
	if f.Attempts != 3 {
		t.Errorf("infra failure made %d attempts, want 3 (1 + 2 retries)", f.Attempts)
	}

	det := chaosGrid()
	det.Points = det.Points[3:4] // the invariant violation
	rows, err = RunExperimentResilient(det, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f := rows[0].Failure; f == nil || f.Attempts != 1 {
		t.Errorf("deterministic violation retried: %+v", f)
	}
}

// TestJournalRejects resumes a two-point grid from journals written by the
// test: a missing or empty journal starts fresh, a malformed final line
// re-runs its point, and a journal that is unreadable, has a bad or older
// header, holds a record that is not byte-canonical, names a point the grid
// does not hold, or records one point twice fails the resume.
func TestJournalRejects(t *testing.T) {
	e := Experiment{ID: "j", Title: "journal test", Points: []Point{
		{Label: "a", Spec: core.Spec{CC: "cubic", Conns: 1}},
		{Label: "b", Spec: core.Spec{CC: "reno", Conns: 1}},
	}}
	opts := RunOpts{Dur: 100 * time.Millisecond, Seeds: 1, Workers: 1, Resume: true}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if _, err := RunExperimentResilient(e, RunOpts{Dur: opts.Dur, Seeds: 1, Workers: 1, Journal: full}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n") // header, a, b, ""
	rec := func(i int, label string) string {
		data, err := json.Marshal(obs.PointRecord{V: obs.Version, I: i, Label: label})
		if err != nil {
			t.Fatal(err)
		}
		return string(data) + "\n"
	}
	for _, tc := range []struct {
		name    string
		journal string // written before the resume; "-" writes none
		want    string // error fragment; "" means the resume completes
	}{
		{"missing", "-", ""},
		{"empty", "", ""},
		{"final line malformed", lines[0] + lines[1] + "{\"i\":1,\n", ""},
		{"bad header", "{\n", "bad header"},
		{"final line not canonical", lines[0] + lines[1] + `{"i":1,"label":"b"}` + "\n", ""},
		{"version 2 journal", strings.Replace(lines[0], `"v":3`, `"v":2`, 1), "different run configuration"},
		{"index out of range", lines[0] + rec(5, "a"), "entry 0: point index 5 out of range"},
		{"label mismatch", lines[0] + rec(1, "a"), `entry 0: label "a" does not match point 1 ("b")`},
		{"not canonical", lines[0] + `{"v":1,"i":0,"label":"a"}` + "\n" + lines[2], "entry 0: record does not re-encode to its own bytes"},
		{"point recorded twice", lines[0] + lines[1] + lines[1] + lines[2], `entry 1: point 0 ("a") is recorded twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := opts
			o.Journal = filepath.Join(t.TempDir(), "j.jsonl")
			if tc.journal != "-" {
				if err := os.WriteFile(o.Journal, []byte(tc.journal), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rows, err := RunExperimentResilient(e, o)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err %v, want %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 2 || rows[0].Failure != nil || rows[1].Failure != nil || rows[1].GoodputMbps <= 0 {
				t.Fatalf("rows %+v", rows)
			}
			if got, err := os.ReadFile(o.Journal); err != nil || string(got) != string(data) {
				t.Errorf("journal after resume:\n%s\nwant the uninterrupted run's:\n%s", got, data)
			}
		})
	}
	for _, tc := range []struct{ name, journal, want string }{
		{"journal is a directory", dir, "is a directory"},
		{"journal in a missing directory", filepath.Join(dir, "missing", "j.jsonl"), "no such file or directory"},
	} {
		o := opts
		o.Journal = tc.journal
		if _, err := RunExperimentResilient(e, o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		o := opts
		o.Journal, o.Resume = "/dev/full", false
		if _, err := RunExperimentResilient(e, o); err == nil || !strings.Contains(err.Error(), "repro: journal /dev/full: ") {
			t.Errorf("unwritable journal: err %v", err)
		}
	}
	jw := &journalWriter{}
	if err := jw.append(obs.PointRecord{Metrics: obs.Metrics{GoodputMbps: math.NaN()}}); err == nil {
		t.Error("a record that cannot encode was journaled")
	}
}

// FuzzJournal: parseJournal over arbitrary bytes never panics, and what it
// accepts is a prefix of newline-terminated lines — the header, then one
// line per record that is exactly that record's encoding, no point twice —
// after which a torn tail changes nothing.
func FuzzJournal(f *testing.F) {
	e := Experiment{ID: "j", Title: "journal fuzz", Points: []Point{{Label: "a"}, {Label: "b"}, {Label: "c"}}}
	opts := RunOpts{Dur: time.Second, Seeds: 1}
	journal, err := json.Marshal(headerFor(e, opts))
	if err != nil {
		f.Fatal(err)
	}
	journal = append(journal, '\n')
	for _, rec := range []obs.PointRecord{
		{V: obs.Version, I: 1, Label: "b", Spec: json.RawMessage(`{"cc":"bbr","conns":2}`),
			Metrics: obs.Metrics{GoodputMbps: 12.5, Retransmits: 3}, Events: 42, MaxPending: 7,
			Segments: []obs.Segment{{GoodputMbps: 1.5, RTTms: 40, Retransmits: 2}},
			Digest: map[string]obs.HistDigest{"rtt": {Count: 2, Sum: 3, Min: 1, Max: 2,
				Bounds: []float64{1, 2}, Counts: []uint64{1, 1}, P50: 1, P90: 2, P99: 2}}},
		{V: obs.Version, I: 0, Label: "a", Failure: &obs.Failure{Class: core.FailPanic, Msg: "panic: boom", Attempts: 1}},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	if recs, _, err := parseJournal(journal, e, opts); err != nil || len(recs) != 2 {
		f.Fatalf("the seed journal reads back as %d records, err %v", len(recs), err)
	}
	hdrLen := bytes.IndexByte(journal, '\n') + 1
	f.Add(journal)
	f.Add(journal[:len(journal)-9])
	f.Add(append(slices.Clip(journal), journal[hdrLen:]...)) // every point twice
	f.Add(journal[:hdrLen])
	f.Add([]byte("{\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, keep, err := parseJournal(data, e, opts)
		if err != nil || keep == 0 {
			return
		}
		lines := bytes.SplitAfter(data[:keep], []byte("\n")) // header, records, ""
		if len(lines) != len(recs)+2 {
			t.Fatalf("%d records accepted from %d lines", len(recs), len(lines)-1)
		}
		seen := map[int]bool{}
		for k, rec := range recs {
			enc, err := json.Marshal(rec)
			if err != nil || !bytes.Equal(append(enc, '\n'), lines[k+1]) {
				t.Fatalf("entry %d re-encodes to %s (err %v), read from %q", k, enc, err, lines[k+1])
			}
			if seen[rec.I] {
				t.Fatalf("point %d accepted twice", rec.I)
			}
			seen[rec.I] = true
		}
		torn := append(data[:keep:keep], `{"v":1,"i":2,"lab`...)
		if again, n, err := parseJournal(torn, e, opts); err != nil || n != keep || !reflect.DeepEqual(again, recs) {
			t.Fatalf("a torn tail changed the result: %d records, keep %d, err %v", len(again), n, err)
		}
	})
}
