package repro

import (
	"reflect"
	"testing"
	"time"
)

// shardTestDur keeps the full-registry differential affordable: every grid
// point of every experiment still runs twice (serial and sharded).
const shardTestDur = 60 * time.Millisecond

// TestShardedGridMatchesSerial is the grid-scale differential: every
// experiment in the registry, run serial and with Shards=2, must produce
// deeply equal rows. Points with serial-only features (churn, app workloads,
// mobility, faults) exercise the fallback path and must also match.
func TestShardedGridMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("grid differential is long")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			serial := runGrid(t, e, RunOpts{Dur: shardTestDur, Seeds: 1, Workers: 1})
			sharded := runGrid(t, e, RunOpts{Dur: shardTestDur, Seeds: 1, Workers: 1, Shards: 2})
			s, h := stripSample(serial), stripSample(sharded)
			for i := range s {
				if !reflect.DeepEqual(s[i], h[i]) {
					t.Errorf("point %q differs:\nserial:  %+v\nsharded: %+v",
						e.Points[i].Label, s[i], h[i])
				}
			}
		})
	}
}
