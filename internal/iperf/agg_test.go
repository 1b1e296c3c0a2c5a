package iperf

import (
	"testing"
	"time"

	"mobbr/internal/cc/cubic"
	"mobbr/internal/units"
)

// TestAggregateMatchesSlowWalk is the O(1)-counter equality gate: the
// run-wide AggStats counters that the periodic paths read must be
// integer-identical to the O(conns) walks they replaced — goodput against
// the per-receiver sum, retransmits against the per-conn stats sum.
func TestAggregateMatchesSlowWalk(t *testing.T) {
	for _, conns := range []int{1, 4, 16} {
		eng, cpu, path := newRig(1)
		sess := mustNew(t, eng, cpu, path, Config{
			Conns:    conns,
			Duration: 2 * time.Second,
			Interval: 100 * time.Millisecond,
			CC:       cubic.Factory(),
		})
		rep := sess.Run()
		if rep.Goodput == 0 {
			t.Fatalf("conns=%d: no goodput", conns)
		}
		agg := sess.Aggregates()
		if got, want := agg.GoodBytes(), sess.totalGoodBytes(); got != want {
			t.Errorf("conns=%d: aggregate good bytes %d != receiver walk %d", conns, got, want)
		}
		var retx int64
		for _, c := range sess.Conns() {
			retx += c.Stats().Retransmits
		}
		if got := agg.Retransmits(); got != retx {
			t.Errorf("conns=%d: aggregate retransmits %d != conn walk %d", conns, got, retx)
		}
		if agg.RTTSamples() == 0 || agg.AvgRTT() <= 0 {
			t.Errorf("conns=%d: aggregate RTT empty (%d samples, avg %v)",
				conns, agg.RTTSamples(), agg.AvgRTT())
		}
	}
}

// totalGoodBytes is the slow O(conns) walk the aggregate counter replaced
// on the periodic paths.
func (s *Session) totalGoodBytes() units.DataSize {
	var n units.DataSize
	for _, rx := range s.rxs {
		n += rx.GoodBytes()
	}
	return n
}
