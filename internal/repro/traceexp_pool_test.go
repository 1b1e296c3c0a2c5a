package repro

import (
	"reflect"
	"testing"
	"time"

	"mobbr/internal/mobility"
)

// TestTraceGridParallelMatchesSerial runs a pooled mobility-trace grid at
// -j 1 and -j 8 and requires deep-equal rows. Every run carries a private
// packet/ACK pool, so this doubles as the race gate for the recycler: run
// under `go test -race` (CI does) it proves pools never cross goroutines.
func TestTraceGridParallelMatchesSerial(t *testing.T) {
	tr, err := mobility.Synthesize(mobility.Train, 2*time.Second, mobility.DefaultTick, 7)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	e, err := NewTraceExperiment(tr)
	if err != nil {
		t.Fatalf("NewTraceExperiment: %v", err)
	}
	serial := runGrid(t, e, RunOpts{Seeds: 2, Workers: 1})
	par := runGrid(t, e, RunOpts{Seeds: 2, Workers: 8})
	if !reflect.DeepEqual(stripSample(serial), stripSample(par)) {
		t.Fatal("trace grid rows differ between -j 1 and -j 8")
	}
}
