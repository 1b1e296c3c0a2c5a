package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGoldenTables pins the three table formats byte for byte. The golden
// files were written by the three separate runners this package used to
// carry (RunExperiment/Print, RunRecovery/PrintRecovery, RunTrace/PrintTrace)
// and committed untouched before those were folded into the one runner, so
// this is the proof the fold changed no printed digit.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three grids")
	}
	tr, err := LoadTrace("", "driving", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := NewTraceExperiment(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		e      Experiment
		opts   RunOpts
	}{
		{"print_fig4.golden", Figure4(), RunOpts{Dur: 300 * time.Millisecond, Seeds: 1}},
		{"print_recovery.golden", Recovery(), RunOpts{Seeds: 1}},
		{"print_trace_driving.golden", trace, RunOpts{Seeds: 1}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		Print(&got, tc.e, runGrid(t, tc.e, tc.opts))
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s diverged:\n--- want\n%s--- got\n%s", tc.golden, want, got.Bytes())
		}
	}
}
