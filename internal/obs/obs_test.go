package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobbr/internal/telemetry"
)

func testManifest(exp string, points int) Manifest {
	return Manifest{
		Exp: exp, Title: "test grid", Points: points, Seeds: 3, Dur: "4s",
		Metrics: true, Flags: map[string]string{"j": "4"},
	}
}

func testPoints(n int) []PointRecord {
	pts := make([]PointRecord, n)
	for i := range pts {
		pts[i] = PointRecord{
			I: i, Label: "cell" + string(rune('A'+i)),
			Spec:    []byte(`{"device":"pixel4","cpu":"low","cc":"bbr","network":"ethernet"}`),
			Metrics: Metrics{GoodputMbps: 100 + float64(i), GoodputCI: 2, Retransmits: 10},
			Events:  1000,
		}
	}
	return pts
}

func TestWriteLoadRunRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fig2")
	m, pts := testManifest("fig2", 3), testPoints(3)
	if err := WriteRun(dir, m, pts); err != nil {
		t.Fatal(err)
	}
	r, err := LoadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifest.Exp != "fig2" || r.Manifest.Points != 3 || r.Manifest.Seeds != 3 {
		t.Fatalf("manifest mismatch: %+v", r.Manifest)
	}
	if r.Manifest.V != Version {
		t.Fatalf("version not stamped: %d", r.Manifest.V)
	}
	if len(r.Points) != 3 {
		t.Fatalf("got %d points", len(r.Points))
	}
	for i, p := range r.Points {
		if p.I != i || p.Metrics.GoodputMbps != 100+float64(i) {
			t.Fatalf("point %d round-trip mismatch: %+v", i, p)
		}
	}
}

// A second write with a smaller grid must remove the stale artifacts, not
// leave 002.json orphaned next to the new 2-point run.
func TestWriteRunClearsStalePoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fig2")
	if err := WriteRun(dir, testManifest("fig2", 3), testPoints(3)); err != nil {
		t.Fatal(err)
	}
	if err := WriteRun(dir, testManifest("fig2", 2), testPoints(2)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "points"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("stale artifacts survived: %d files in points/", len(entries))
	}
	if _, err := LoadRun(dir); err != nil {
		t.Fatal(err)
	}
}

// Re-archiving the identical grid must reproduce the point files
// byte-identically (the archive determinism contract).
func TestWriteRunDeterministicBytes(t *testing.T) {
	base := t.TempDir()
	d1, d2 := filepath.Join(base, "a"), filepath.Join(base, "b")
	m, pts := testManifest("fig2", 3), testPoints(3)
	pts[1].Digest = map[string]HistDigest{
		"pacing_timer_slip_us": {Count: 4, Sum: 100, Min: 10, Max: 40,
			Bounds: []float64{16, 64}, Counts: []uint64{2, 1, 1}, P50: 16, P90: 64, P99: 64},
	}
	if err := WriteRun(d1, m, pts); err != nil {
		t.Fatal(err)
	}
	if err := WriteRun(d2, m, pts); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		f := filepath.Join("points", pointFile(i))
		b1, err := os.ReadFile(filepath.Join(d1, f))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(d2, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("point %d bytes differ between identical archives", i)
		}
	}
}

func TestLoadRunStrictness(t *testing.T) {
	write := func(t *testing.T, mutate func(dir string)) error {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "fig2")
		if err := WriteRun(dir, testManifest("fig2", 2), testPoints(2)); err != nil {
			t.Fatal(err)
		}
		mutate(dir)
		_, err := LoadRun(dir)
		return err
	}
	if err := write(t, func(dir string) {
		os.WriteFile(filepath.Join(dir, "manifest.json"),
			[]byte(`{"v":1,"exp":"fig2","points":2,"seeds":3,"dur":"4s","mystery":7}`+"\n"), 0o644)
	}); err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("unknown manifest field accepted: %v", err)
	}
	if err := write(t, func(dir string) {
		os.WriteFile(filepath.Join(dir, "manifest.json"),
			[]byte(`{"v":99,"exp":"fig2","points":2,"seeds":3,"dur":"4s"}`+"\n"), 0o644)
	}); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("version drift accepted: %v", err)
	}
	if err := write(t, func(dir string) {
		os.Remove(filepath.Join(dir, "points", "001.json"))
	}); err == nil {
		t.Fatal("missing point file accepted")
	}
	if err := write(t, func(dir string) {
		os.WriteFile(filepath.Join(dir, "points", "002.json"), []byte("{}\n"), 0o644)
	}); err == nil {
		t.Fatal("surplus point file accepted")
	}
}

func TestWriteRunValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "x")
	if err := WriteRun(dir, testManifest("x", 3), testPoints(2)); err == nil {
		t.Fatal("point-count mismatch accepted")
	}
	pts := testPoints(2)
	pts[1].I = 7
	if err := WriteRun(dir, testManifest("x", 2), pts); err == nil {
		t.Fatal("index mismatch accepted")
	}
}

func TestLoadArchive(t *testing.T) {
	root := t.TempDir()
	for _, exp := range []string{"fig2", "recovery"} {
		if err := WriteRun(filepath.Join(root, exp), testManifest(exp, 2), testPoints(2)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := LoadArchive(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 2 || a.Order[0] != "fig2" || a.Order[1] != "recovery" {
		t.Fatalf("archive: runs=%d order=%v", len(a.Runs), a.Order)
	}

	// A run directory is itself a loadable single-experiment archive.
	single, err := LoadArchive(filepath.Join(root, "fig2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Runs) != 1 || single.Order[0] != "fig2" {
		t.Fatalf("single-run archive: %v", single.Order)
	}

	// Subdirectory name must match the manifest's experiment id.
	if err := WriteRun(filepath.Join(root, "liar"), testManifest("fig9", 1), testPoints(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArchive(root); err == nil || !strings.Contains(err.Error(), "fig9") {
		t.Fatalf("mismatched dir/exp accepted: %v", err)
	}

	if _, err := LoadArchive(t.TempDir()); err == nil {
		t.Fatal("empty root accepted")
	}
}

func TestDigestSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("conn0/pacing_timer_slip_us", []float64{16, 64})
	h.Observe(10)
	h.Observe(100)
	reg.Histogram("conn0/empty_instrument", []float64{1, 2}) // zero count → skipped
	snap := reg.Snapshot()
	d, skipped := DigestSnapshot(snap)
	if skipped != 0 {
		t.Fatalf("skipped=%d", skipped)
	}
	got, ok := d["pacing_timer_slip_us"]
	if !ok {
		t.Fatalf("conn prefix not stripped: %v", d)
	}
	if _, ok := d["empty_instrument"]; ok {
		t.Fatal("empty histogram archived (would carry ±Inf sentinels)")
	}
	if got.Count != 2 || got.Sum != 110 || got.Min != 10 || got.Max != 100 {
		t.Fatalf("digest: %+v", got)
	}
	if got.P99 != 100 {
		t.Fatalf("p99=%v", got.P99)
	}
	// Round-trip back to a snapshot for rollup merging.
	rt := got.Snapshot()
	if rt.Count != 2 || rt.Quantile(0.99) != 100 {
		t.Fatalf("digest snapshot round-trip: %+v", rt)
	}
}

// TestLoadRejects: an archive whose files disagree with its manifest or
// with the codec fails to load, and the error names the file.
func TestLoadRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(dir string) error
		want   string
	}{
		{"manifest is a directory", func(dir string) error {
			m := filepath.Join(dir, "manifest.json")
			if err := os.Remove(m); err != nil {
				return err
			}
			return os.Mkdir(m, 0o755)
		}, "manifest.json: is a directory"},
		{"no points directory", func(dir string) error {
			return os.RemoveAll(filepath.Join(dir, "points"))
		}, "points: no such file or directory"},
		{"point file misnamed", func(dir string) error {
			return os.Rename(filepath.Join(dir, "points", "001.json"), filepath.Join(dir, "points", "007.json"))
		}, "001.json: no such file or directory"},
		{"corrupt point", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "points", "001.json"), []byte("{"), 0o644)
		}, "points/001.json: unexpected EOF"},
		{"point version", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "points", "001.json"), []byte(`{"v":2,"i":1}`), 0o644)
		}, "points/001.json: version 2, this tool reads 1"},
		{"point index", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "points", "001.json"), []byte(`{"v":1,"i":0}`), 0o644)
		}, "points/001.json: carries index 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "fig2")
			if err := WriteRun(dir, testManifest("fig2", 2), testPoints(2)); err != nil {
				t.Fatal(err)
			}
			if err := tc.mutate(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadRun(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadRun: err %v, want %q", err, tc.want)
			}
			// The run as an archive, and a root holding it, fail the same way.
			for _, root := range []string{dir, filepath.Dir(dir)} {
				if _, err := LoadArchive(root); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("LoadArchive(%s): err %v, want %q", root, err, tc.want)
				}
			}
		})
	}
}

// TestLoadArchiveSkipsStrays: files and directories without a manifest
// beside the runs are not runs.
func TestLoadArchiveSkipsStrays(t *testing.T) {
	root := t.TempDir()
	if err := WriteRun(filepath.Join(root, "fig2"), testManifest("fig2", 1), testPoints(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(root, "scratch"), 0o755); err != nil {
		t.Fatal(err)
	}
	a, err := LoadArchive(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != 1 || a.Order[0] != "fig2" {
		t.Errorf("runs %v, want [fig2]", a.Order)
	}
}

// TestWriteRunFailures: an archive that cannot be written is an error, not
// a partial success.
func TestWriteRunFailures(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteRun(filepath.Join(file, "fig2"), testManifest("fig2", 1), testPoints(1)); err == nil ||
		!strings.Contains(err.Error(), "obs: writing ") {
		t.Errorf("archive under a regular file: err %v", err)
	}
	pts := testPoints(1)
	pts[0].Metrics.GoodputMbps = math.NaN()
	if err := WriteRun(filepath.Join(t.TempDir(), "fig2"), testManifest("fig2", 1), pts); err == nil ||
		!strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("NaN goodput: err %v", err)
	}
}

// TestDigestSnapshotEmpty: a registry with no samples archives no digest.
func TestDigestSnapshotEmpty(t *testing.T) {
	reg := telemetry.NewRegistry()
	if d, skipped := DigestSnapshot(reg.Snapshot()); d != nil || skipped != 0 {
		t.Errorf("empty registry: digest %v, skipped %d", d, skipped)
	}
	reg.Histogram("conn0/rtt_ms", []float64{1, 2})
	if d, skipped := DigestSnapshot(reg.Snapshot()); d != nil || skipped != 0 {
		t.Errorf("only empty histograms: digest %v, skipped %d", d, skipped)
	}
}
