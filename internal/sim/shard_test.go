package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// pingHost is a synthetic host for the differential tests: it emits a
// message every period, and every received message triggers a local
// follow-up event after a short think time — enough structure to exercise
// window bounds, barrier injection order and clock advancement. Each host
// logs into its own slice (hosts on different shards must not share mutable
// state; per-host streams are what the determinism claim is about).
type pingHost struct {
	eng    *Engine
	name   string
	period time.Duration
	think  time.Duration
	send   func(id int)
	log    []string
	nextID int
}

func (h *pingHost) start() {
	h.eng.Schedule(h.period, h.tick)
}

func (h *pingHost) tick() {
	id := h.nextID
	h.nextID++
	h.log = append(h.log, fmt.Sprintf("%s send %d @%v", h.name, id, h.eng.Now()))
	h.send(id)
	h.eng.Schedule(h.period, h.tick)
}

func (h *pingHost) recv(id int) {
	h.log = append(h.log, fmt.Sprintf("%s recv %d @%v", h.name, id, h.eng.Now()))
	h.eng.Schedule(h.think, func() {
		h.log = append(h.log, fmt.Sprintf("%s done %d @%v", h.name, id, h.eng.Now()))
	})
}

// buildSerial wires two ping hosts onto one engine, messages delivered by a
// plain Schedule at the link delay.
func buildSerial(seed int64, linkDelay time.Duration) (*Engine, *pingHost, *pingHost) {
	eng := New(seed)
	var a, b *pingHost
	a = &pingHost{eng: eng, name: "A", period: 700 * time.Microsecond, think: 90 * time.Microsecond}
	b = &pingHost{eng: eng, name: "B", period: 1100 * time.Microsecond, think: 130 * time.Microsecond}
	a.send = func(id int) { eng.Schedule(linkDelay, func() { b.recv(id) }) }
	b.send = func(id int) { eng.Schedule(linkDelay, func() { a.recv(id) }) }
	a.start()
	b.start()
	return eng, a, b
}

// buildSharded wires the same two hosts onto two shards joined by a pair of
// cross-links with the link delay as lookahead.
func buildSharded(seed int64, linkDelay time.Duration) (*ShardedEngine, *pingHost, *pingHost) {
	se := NewSharded(seed, 2)
	var a, b *pingHost
	a = &pingHost{eng: se.Shard(0), name: "A", period: 700 * time.Microsecond, think: 90 * time.Microsecond}
	b = &pingHost{eng: se.Shard(1), name: "B", period: 1100 * time.Microsecond, think: 130 * time.Microsecond}
	ab := se.NewLink(0, 1, linkDelay)
	ba := se.NewLink(1, 0, linkDelay)
	ab.SetInjector(func(arg any, at time.Duration) {
		se.Shard(1).SchedulePAt(at, func(v any) { b.recv(v.(int)) }, arg)
	})
	ba.SetInjector(func(arg any, at time.Duration) {
		se.Shard(0).SchedulePAt(at, func(v any) { a.recv(v.(int)) }, arg)
	})
	a.send = func(id int) { ab.Post(id, linkDelay) }
	b.send = func(id int) { ba.Post(id, linkDelay) }
	a.start()
	b.start()
	return se, a, b
}

func diffLogs(t *testing.T, host string, serial, sharded []string) {
	t.Helper()
	if reflect.DeepEqual(serial, sharded) {
		return
	}
	min := len(serial)
	if len(sharded) < min {
		min = len(sharded)
	}
	for i := 0; i < min; i++ {
		if serial[i] != sharded[i] {
			t.Fatalf("host %s diverges at %d: serial %q vs sharded %q", host, i, serial[i], sharded[i])
		}
	}
	t.Fatalf("host %s log lengths differ: serial %d vs sharded %d", host, len(serial), len(sharded))
}

// TestShardedMatchesSerial is the core differential: each host's event
// stream in the sharded run must be entry-for-entry identical to the same
// host's stream in the serial run, with equal Processed counts and final
// clocks — the per-shard streams are subsequences of the serial stream.
func TestShardedMatchesSerial(t *testing.T) {
	const linkDelay = 200 * time.Microsecond
	const end = 50 * time.Millisecond
	serial, sa, sb := buildSerial(1, linkDelay)
	serial.Run(end)
	sharded, pa, pb := buildSharded(1, linkDelay)
	sharded.Run(end)

	diffLogs(t, "A", sa.log, pa.log)
	diffLogs(t, "B", sb.log, pb.log)
	if serial.Processed() != sharded.Processed() {
		t.Fatalf("processed: serial %d vs sharded %d", serial.Processed(), sharded.Processed())
	}
	if serial.Now() != end || sharded.Shard(0).Now() != end || sharded.Shard(1).Now() != end {
		t.Fatalf("final clocks: serial %v, shards %v/%v, want %v",
			serial.Now(), sharded.Shard(0).Now(), sharded.Shard(1).Now(), end)
	}
	if err := checkQueues(sharded); err != nil {
		t.Fatalf("queue audit: %v", err)
	}
}

// TestShardedDeterministic: two sharded runs with the same seed produce the
// same logs — barrier merges must not depend on goroutine timing.
func TestShardedDeterministic(t *testing.T) {
	const linkDelay = 150 * time.Microsecond
	x, xa, xb := buildSharded(7, linkDelay)
	x.Run(30 * time.Millisecond)
	y, ya, yb := buildSharded(7, linkDelay)
	y.Run(30 * time.Millisecond)
	diffLogs(t, "A", xa.log, ya.log)
	diffLogs(t, "B", xb.log, yb.log)
	if x.Processed() != y.Processed() {
		t.Fatalf("processed differs: %d vs %d", x.Processed(), y.Processed())
	}
}

// TestGlobalCutMatchesSerialEvent: a GlobalAt on the sharded engine is the
// counterpart of one scheduled event on the serial engine — it must observe
// the same state at the same time and count as exactly one processed event.
func TestGlobalCutMatchesSerialEvent(t *testing.T) {
	const linkDelay = 200 * time.Microsecond
	const cut = 13 * time.Millisecond
	const end = 25 * time.Millisecond

	serial, sa, sb := buildSerial(3, linkDelay)
	var serialSnap int
	serial.Schedule(cut, func() { serialSnap = len(sa.log) + len(sb.log) })
	serial.Run(end)

	sharded, pa, pb := buildSharded(3, linkDelay)
	var shardSnap int
	sharded.GlobalAt(cut, func() {
		// At a consistent cut every shard is parked; reading both hosts'
		// state here is the whole point of globals.
		shardSnap = len(pa.log) + len(pb.log)
		if sharded.Shard(0).Now() != cut || sharded.Shard(1).Now() != cut {
			t.Errorf("global ran off-cut: clocks %v/%v, want %v",
				sharded.Shard(0).Now(), sharded.Shard(1).Now(), cut)
		}
	})
	sharded.Run(end)

	if serialSnap != shardSnap {
		t.Fatalf("snapshot at cut: serial saw %d log entries, sharded %d", serialSnap, shardSnap)
	}
	if serial.Processed() != sharded.Processed() {
		t.Fatalf("processed: serial %d vs sharded %d", serial.Processed(), sharded.Processed())
	}
}

// TestGlobalEvery fires at every interval boundary up to and including end,
// each counting one processed event.
func TestGlobalEvery(t *testing.T) {
	se := NewSharded(1, 2)
	l := se.NewLink(0, 1, time.Millisecond)
	l.SetInjector(func(arg any, at time.Duration) {})
	var times []time.Duration
	se.GlobalEvery(4*time.Millisecond, func() {
		times = append(times, se.Shard(0).Now())
	})
	// Keep a trickle of work alive on shard 0 so windows keep forming.
	var tick func()
	tick = func() {
		if se.Shard(0).Now() < 20*time.Millisecond {
			se.Shard(0).Schedule(time.Millisecond, tick)
		}
	}
	se.Shard(0).Schedule(time.Millisecond, tick)
	se.Run(20 * time.Millisecond)
	want := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond}
	if !reflect.DeepEqual(times, want) {
		t.Fatalf("global fired at %v, want %v", times, want)
	}
	if got := se.Processed(); got != uint64(20+len(want)) {
		t.Fatalf("processed %d, want %d ticks + %d globals", got, 20, len(want))
	}
}

// TestSingleShardFastPath: a 1-shard engine with no globals must behave
// exactly like the serial engine it wraps.
func TestSingleShardFastPath(t *testing.T) {
	se := NewSharded(5, 1)
	ref := New(5)
	var got, want []time.Duration
	for _, d := range []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond} {
		d := d
		se.Shard(0).Schedule(d, func() { got = append(got, se.Shard(0).Now()) })
		ref.Schedule(d, func() { want = append(want, ref.Now()) })
	}
	se.Run(10 * time.Millisecond)
	ref.Run(10 * time.Millisecond)
	if !reflect.DeepEqual(got, want) || se.Processed() != ref.Processed() {
		t.Fatalf("fast path diverged: %v vs %v (processed %d vs %d)", got, want, se.Processed(), ref.Processed())
	}
}

// TestPostBelowLookaheadPanics: violating the declared minimum delay is a
// wiring bug and must fail loudly, not corrupt the window protocol.
func TestPostBelowLookaheadPanics(t *testing.T) {
	se := NewSharded(1, 2)
	l := se.NewLink(0, 1, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Post below lookahead did not panic")
		}
	}()
	l.Post(42, 500*time.Microsecond)
}

// TestNewLinkValidation rejects self-links, out-of-range endpoints and
// non-positive lookahead.
func TestNewLinkValidation(t *testing.T) {
	cases := []struct {
		name     string
		src, dst int
		delay    time.Duration
	}{
		{"self", 0, 0, time.Millisecond},
		{"out-of-range", 0, 5, time.Millisecond},
		{"negative-src", -1, 0, time.Millisecond},
		{"zero-delay", 0, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			se := NewSharded(1, 2)
			defer func() {
				if recover() == nil {
					t.Fatalf("NewLink(%d,%d,%v) did not panic", c.src, c.dst, c.delay)
				}
			}()
			se.NewLink(c.src, c.dst, c.delay)
		})
	}
}

// TestDrainPending: messages posted but never flushed (here, a run
// abandoned without reaching a barrier) stay reachable for reclaim.
func TestDrainPending(t *testing.T) {
	se := NewSharded(1, 2)
	l := se.NewLink(0, 1, time.Millisecond)
	l.SetInjector(func(arg any, at time.Duration) {
		t.Fatal("injector must not run: no barrier is ever reached")
	})
	// Drive shard 0 directly, bypassing the window loop — the post never
	// meets a barrier flush.
	se.Shard(0).Schedule(5*time.Millisecond, func() {
		l.Post("orphan", time.Millisecond)
	})
	se.Shard(0).Run(5 * time.Millisecond)
	if l.Pending() != 1 {
		t.Fatalf("pending %d, want 1", l.Pending())
	}
	var drained []any
	l.DrainPending(func(v any) { drained = append(drained, v) })
	if len(drained) != 1 || drained[0] != "orphan" || l.Pending() != 0 {
		t.Fatalf("drain got %v, pending now %d", drained, l.Pending())
	}
}

// TestFinalWindowFlushes: a message posted by an event in the last window
// is still injected at the final barrier, so custody always ends up on the
// destination side (where run-end reclaim looks for it).
func TestFinalWindowFlushes(t *testing.T) {
	se := NewSharded(1, 2)
	l := se.NewLink(0, 1, time.Millisecond)
	injected := 0
	l.SetInjector(func(arg any, at time.Duration) { injected++ })
	se.Shard(0).Schedule(5*time.Millisecond, func() {
		l.Post("late", time.Millisecond)
	})
	se.Run(5 * time.Millisecond)
	if injected != 1 || l.Pending() != 0 {
		t.Fatalf("injected %d, pending %d; want 1, 0", injected, l.Pending())
	}
}

// TestRunUntilAndNextEventTime pins the serial-engine primitives the window
// loop is built on.
func TestRunUntilAndNextEventTime(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		d := d
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	if at, ok := e.NextEventTime(); !ok || at != time.Millisecond {
		t.Fatalf("NextEventTime = %v,%v want 1ms,true", at, ok)
	}
	e.RunUntil(2 * time.Millisecond) // strictly before: only the 1ms event
	if len(fired) != 1 || fired[0] != time.Millisecond {
		t.Fatalf("RunUntil(2ms) fired %v", fired)
	}
	if at, ok := e.NextEventTime(); !ok || at != 2*time.Millisecond {
		t.Fatalf("NextEventTime after window = %v,%v", at, ok)
	}
	e.AdvanceTo(2 * time.Millisecond)
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("AdvanceTo: now %v", e.Now())
	}
	e.AdvanceTo(time.Millisecond) // backwards is a no-op
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("AdvanceTo went backwards: %v", e.Now())
	}
	e.RunUntil(10 * time.Millisecond)
	if len(fired) != 3 {
		t.Fatalf("remaining events: fired %v", fired)
	}
}

// TestShardedLimits: a budget tripped on any shard stops the run and
// surfaces through LimitErr, matching the serial engine's early stop.
func TestShardedLimits(t *testing.T) {
	se := NewSharded(1, 2)
	l := se.NewLink(0, 1, time.Millisecond)
	l.SetInjector(func(arg any, at time.Duration) {})
	se.SetLimits(Limits{MaxEvents: 5})
	var tick func()
	n := 0
	tick = func() {
		n++
		se.Shard(0).Schedule(time.Millisecond, tick)
	}
	se.Shard(0).Schedule(time.Millisecond, tick)
	se.Run(100 * time.Millisecond)
	if se.LimitErr() == nil {
		t.Fatal("expected tripped budget")
	}
	if n > 6 {
		t.Fatalf("ran %d events past a 5-event budget", n)
	}
}

// TestProcessedAcrossManyShards: four shards in a ring, messages forwarded
// around; per-shard logs, processed totals and the hop sequence must be
// reproducible and complete.
func TestProcessedAcrossManyShards(t *testing.T) {
	build := func() (*ShardedEngine, []*[]int) {
		se := NewSharded(9, 4)
		logs := make([]*[]int, 4)
		for i := range logs {
			logs[i] = &[]int{}
		}
		links := make([]*CrossLink, 4)
		for i := 0; i < 4; i++ {
			links[i] = se.NewLink(i, (i+1)%4, 300*time.Microsecond)
		}
		for i := 0; i < 4; i++ {
			dst := (i + 1) % 4
			dstEng := se.Shard(dst)
			dstLog := logs[dst]
			next := links[dst]
			links[i].SetInjector(func(arg any, at time.Duration) {
				dstEng.SchedulePAt(at, func(v any) {
					hops := v.(int)
					*dstLog = append(*dstLog, hops)
					if hops < 40 {
						next.Post(hops+1, 300*time.Microsecond)
					}
				}, arg)
			})
		}
		se.Shard(0).Schedule(time.Millisecond, func() {
			links[0].Post(1, 300*time.Microsecond)
		})
		return se, logs
	}
	x, xlogs := build()
	x.Run(time.Second)
	y, ylogs := build()
	y.Run(time.Second)
	total := 0
	for i := range xlogs {
		if !reflect.DeepEqual(*xlogs[i], *ylogs[i]) {
			t.Fatalf("shard %d logs diverged: %v vs %v", i, *xlogs[i], *ylogs[i])
		}
		total += len(*xlogs[i])
	}
	if x.Processed() != y.Processed() {
		t.Fatalf("processed %d vs %d", x.Processed(), y.Processed())
	}
	if total != 40 {
		t.Fatalf("ring delivered %d hops, want 40", total)
	}
}

// checkQueues audits every shard's scheduler accounting.
func checkQueues(s *ShardedEngine) error {
	for i, e := range s.shards {
		if err := e.CheckQueue(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
