package flows

import (
	"fmt"
	"testing"
	"time"

	"mobbr/internal/cc/cubic"
	"mobbr/internal/cpumodel"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// benchSession builds a live churn session with n flows running, settled
// past the initial burst.
func benchSession(b *testing.B, n int) *Session {
	b.Helper()
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 3e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(eng, cpu, path, iperf.Config{
		CC:       cubic.Factory(),
		Duration: time.Hour, // the benchmark drives the engine itself
		Interval: 100 * time.Millisecond,
		Pool:     seg.NewPool(),
	}, Config{
		ArrivalRate:  1, // hold the population ~constant at n
		MaxLive:      n,
		InitialFlows: n,
		MiceBytes:    64 * units.MB, // long-lived flows: none complete mid-benchmark
		MiceSigma:    0.001,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	eng.Run(200 * time.Millisecond)
	if s.Live() != n {
		b.Fatalf("settled at %d live flows, want %d", s.Live(), n)
	}
	return s
}

// BenchmarkSamplePath is the O(1)-sampling contract: one periodic metric
// sample must cost the same at 1k live flows as at 100k. ns/op flat across
// the sub-benchmarks (and zero allocs) is the point — before the aggregate
// counters this walked every connection.
func BenchmarkSamplePath(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("live=%d", n), func(b *testing.B) {
			s := benchSession(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.sampleOnce()
			}
		})
	}
}

// BenchmarkIntervalPath covers the other periodic path: closing a
// reporting interval reads four aggregate counters, O(1) at any
// population. (The intervals slice append amortizes; allocs/op stays ~0.)
func BenchmarkIntervalPath(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("live=%d", n), func(b *testing.B) {
			s := benchSession(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.recordIntervalOnce()
			}
		})
	}
}

// Live returns the current live-flow count.
func (s *Session) Live() int { return len(s.live) }
