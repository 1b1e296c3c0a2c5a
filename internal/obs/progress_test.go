package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer guards a builder against the ticker goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestProgressLifecycle(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, time.Millisecond)
	p.BeginExperiment("fig2", 3)
	// Resumed point: Done without a preceding Start must not panic and must
	// still count.
	p.PointDone(0, 0, 500, false)
	p.PointStart(1, 1, "cellB")
	p.PointDone(1, 1, 1000, false)
	p.PointStart(0, 2, "cellC")
	p.PointDone(0, 2, 0, true)
	time.Sleep(5 * time.Millisecond) // let the ticker render at least once
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "progress: fig2 done 3/3 (1 failed)") {
		t.Fatalf("summary missing:\n%q", out)
	}
}

// TestProgressReplayedPointsExcludedFromRate pins the journal-resume fix:
// PointDone without a prior PointStart (a replayed checkpoint) must not feed
// the events/sec numerator — those events were executed by the original run,
// and counting them against this process's wall clock inflates the live rate.
func TestProgressReplayedPointsExcludedFromRate(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, time.Hour) // ticker never fires; we inspect state
	defer p.Stop()
	p.BeginExperiment("fig2", 4)

	// Two replayed points with huge event counts: done advances, rate does not.
	p.PointDone(0, 0, 1_000_000, false)
	p.PointDone(0, 1, 2_000_000, false)
	p.mu.Lock()
	if p.events != 0 {
		p.mu.Unlock()
		t.Fatalf("replayed points leaked %d events into the rate", p.events)
	}
	if p.done != 2 {
		p.mu.Unlock()
		t.Fatalf("done = %d, want 2", p.done)
	}
	p.mu.Unlock()

	// A live point (Start then Done) must count fully.
	p.PointStart(1, 2, "cellC")
	p.PointDone(1, 2, 750, false)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.events != 750 {
		t.Fatalf("live point events = %d, want 750", p.events)
	}
	if n := p.perPoint.N(); n != 1 {
		t.Fatalf("perPoint samples = %d, want 1 (replayed points must not feed the ETA)", n)
	}
}

func TestProgressConcurrent(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, time.Millisecond)
	p.BeginExperiment("fig2", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 64; i += 8 {
				p.PointStart(w, i, "pt")
				p.PointDone(w, i, 100, false)
			}
		}(w)
	}
	wg.Wait()
	p.Stop()
	if !strings.Contains(buf.String(), "done 64/64") {
		t.Fatalf("output:\n%q", buf.String())
	}
}

// TestProgressRender renders the status line directly, never from the
// ticker: failures, the event rate, the ETA and each busy worker show, a
// shorter line pads over the longer one, and Stop clears it.
func TestProgressRender(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, time.Hour)
	p.BeginExperiment("fig4", 4)
	p.PointStart(0, 0, "cellA")
	p.PointStart(1, 1, "cellB")
	p.PointDone(0, 0, 2_000_000, true)
	p.render()
	first := buf.String()
	for _, want := range []string{"\rfig4 1/4 (1 failed) ", "M ev/s", " eta ", " [w1 cellB]"} {
		if !strings.Contains(first, want) {
			t.Errorf("status line lacks %q: %q", want, first)
		}
	}
	p.PointDone(1, 1, 0, false)
	p.render()
	second := strings.TrimPrefix(buf.String(), first)
	if !strings.HasPrefix(second, "\rfig4 2/4 (1 failed) ") || strings.Contains(second, "[w") || !strings.HasSuffix(second, " ") {
		t.Errorf("second line %q: want no busy workers, padded over the first", second)
	}
	p.Stop()
	if !strings.HasSuffix(buf.String(), "\rprogress: fig4 done 2/4 (1 failed) in 0s\n") {
		t.Errorf("Stop wrote %q", strings.TrimPrefix(buf.String(), first+second))
	}
}
