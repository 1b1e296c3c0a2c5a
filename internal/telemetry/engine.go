package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mobbr/internal/sim"
)

// EngineStats measures the simulator itself over one run — events
// processed, wall-clock throughput, and heap pressure — so BENCH runs track
// engine performance across PRs. Wall-clock and allocation figures are
// inherently nondeterministic; they never enter the event bus or JSONL
// export, only this side report.
type EngineStats struct {
	// Events is the number of simulator events executed during the run.
	Events uint64
	// VirtualTime is the virtual span covered.
	VirtualTime time.Duration
	// WallTime is the host time the run took.
	WallTime time.Duration
	// EventsPerSec is Events / WallTime.
	EventsPerSec float64
	// HeapAllocs is the number of heap objects the whole process allocated
	// during the run (runtime.MemStats.Mallocs deltas). It is process-wide:
	// it counts every goroutine, so while other runs execute in parallel
	// (grid workers at -j > 1) it includes what they allocated meanwhile.
	HeapAllocs uint64
	// AllocsPerSimSec is HeapAllocs per simulated second, process-wide too.
	AllocsPerSimSec float64
	// MaxPending is the engine queue's high-water mark.
	MaxPending int
}

// Write renders the stats as aligned text.
func (s *EngineStats) Write(w io.Writer) error {
	if s == nil {
		return nil
	}
	_, err := fmt.Fprintf(w,
		"engine: %d events over %v virtual in %v wall (%.0f events/s), %d process-wide heap allocs (%.0f/sim-s), max queue %d\n",
		s.Events, s.VirtualTime, s.WallTime.Round(time.Microsecond),
		s.EventsPerSec, s.HeapAllocs, s.AllocsPerSimSec, s.MaxPending)
	return err
}

// EngineCollector snapshots engine and runtime counters at run start so
// Stop can report the deltas.
type EngineCollector struct {
	eng         *sim.Engine
	startEvents uint64
	startVirt   time.Duration
	startWall   time.Time
	startallocs uint64
}

// StartEngineCollector begins measuring eng. Call Stop when the run ends.
func StartEngineCollector(eng *sim.Engine) *EngineCollector {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &EngineCollector{
		eng:         eng,
		startEvents: eng.Processed(),
		startVirt:   eng.Now(),
		startWall:   time.Now(),
		startallocs: ms.Mallocs,
	}
}

// Stop finalizes the measurement. Safe on a nil collector (returns nil).
func (c *EngineCollector) Stop() *EngineStats {
	if c == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &EngineStats{
		Events:      c.eng.Processed() - c.startEvents,
		VirtualTime: c.eng.Now() - c.startVirt,
		WallTime:    time.Since(c.startWall),
		HeapAllocs:  ms.Mallocs - c.startallocs,
		MaxPending:  c.eng.MaxPending(),
	}
	if s.WallTime > 0 {
		s.EventsPerSec = float64(s.Events) / s.WallTime.Seconds()
	}
	if secs := s.VirtualTime.Seconds(); secs > 0 {
		s.AllocsPerSimSec = float64(s.HeapAllocs) / secs
	}
	return s
}
