package check

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/units"
)

// stubAudit replays canned snapshots.
type stubAudit struct{ a tcp.Audit }

func (s *stubAudit) Audit() tcp.Audit { return s.a }

// healthy returns a snapshot satisfying every invariant.
func healthy() tcp.Audit {
	return tcp.Audit{
		ID:            1,
		SndUna:        10_000,
		SndNxt:        14_000,
		Inflight:      4,
		SegsSent:      14,
		Delivered:     10,
		BoardInflight: 4,
		LiveBytes:     4_000,
		Cwnd:          10,
		Ssthresh:      64,
		MaxCwnd:       180,
		PacingRate:    10 * units.Mbps,
	}
}

func TestHealthySnapshotPasses(t *testing.T) {
	eng := sim.New(1)
	k := New(eng, "test", 0)
	k.Watch(&stubAudit{healthy()})
	k.CheckNow()
	k.CheckNow()
	if err := k.Err(); err != nil {
		t.Fatalf("healthy snapshot flagged: %v", err)
	}
}

func TestViolationsCaught(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*tcp.Audit)
		rule string
	}{
		{"packets", func(a *tcp.Audit) { a.SegsSent += 3 }, "conservation/packets"},
		{"bytes", func(a *tcp.Audit) { a.LiveBytes -= 100 }, "conservation/bytes"},
		{"inflight counter", func(a *tcp.Audit) { a.Inflight++; a.SegsSent++ }, "inflight/counter"},
		{"sequence order", func(a *tcp.Audit) { a.SndNxt = a.SndUna - 1 }, "sequence/order"},
		{"cwnd low", func(a *tcp.Audit) { a.Cwnd = 0 }, "cwnd/bounds"},
		{"cwnd high", func(a *tcp.Audit) { a.Cwnd = a.MaxCwnd + 1 }, "cwnd/bounds"},
		{"ssthresh", func(a *tcp.Audit) { a.Ssthresh = 1 }, "ssthresh/bounds"},
		{"pacing", func(a *tcp.Audit) { a.PacingRate = 2000 * units.Gbps }, "pacing/bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			k := New(eng, "test", 0)
			a := healthy()
			tc.mut(&a)
			k.Watch(&stubAudit{a})
			k.CheckNow()
			err := k.Err()
			if err == nil {
				t.Fatalf("corrupted snapshot passed")
			}
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T, want *check.Error", err)
			}
			found := false
			for _, v := range ce.Violations {
				if v.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %q violation in %v", tc.rule, err)
			}
		})
	}
}

// TestQueueDepthViolationCaught: the checker audits the engine's own event
// queue each pass, so a corrupted scheduler counter surfaces as a sim-wide
// violation.
func TestQueueDepthViolationCaught(t *testing.T) {
	eng := sim.New(1)
	k := New(eng, "test", 0)
	eng.Schedule(time.Second, func() {})
	k.CheckNow()
	if err := k.Err(); err != nil {
		t.Fatalf("healthy engine queue flagged: %v", err)
	}
	eng.CorruptQueueForTest()
	k.CheckNow()
	err := k.Err()
	if err == nil || !strings.Contains(err.Error(), "engine/queue-depth") {
		t.Fatalf("corrupted queue counter not caught: %v", err)
	}
}

func TestMonotonicityRegression(t *testing.T) {
	eng := sim.New(1)
	k := New(eng, "test", 0)
	s := &stubAudit{healthy()}
	k.Watch(s)
	k.CheckNow()
	// Rewind delivered: keep conservation intact so only monotonicity fires.
	s.a.Delivered -= 2
	s.a.SegsSent -= 2
	k.CheckNow()
	err := k.Err()
	if err == nil || !strings.Contains(err.Error(), "delivered/monotonic") {
		t.Fatalf("delivered rewind not caught: %v", err)
	}
}

func TestViolationCapStopsTicking(t *testing.T) {
	eng := sim.New(1)
	k := New(eng, "test", time.Millisecond)
	a := healthy()
	a.Cwnd = 0
	k.Watch(&stubAudit{a})
	k.Start()
	eng.Run(time.Second)
	var ce *Error
	if !errors.As(k.Err(), &ce) {
		t.Fatalf("err = %v, want *Error", k.Err())
	}
	if n := len(ce.Violations); n > maxViolations {
		t.Fatalf("collected %d violations, cap is %d", n, maxViolations)
	}
}

// TestLiveConnPasses runs a real transfer with the periodic checker armed
// and with an audit after every delivered segment.
func TestLiveConnPasses(t *testing.T) {
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, netem.TC{Loss: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var mod cc.CongestionControl = newFixedCC(32)
	conn := tcp.NewConn(0, eng, cpu, path, tcp.Config{AppBytes: 2 * units.MB},
		func() cc.CongestionControl { return mod })
	rx := tcp.NewReceiver(eng, path, conn)
	d := tcp.NewDemux()
	d.Add(rx)
	path.SetReceiver(d.Handle)
	k := New(eng, "live", time.Millisecond)
	k.Watch(conn)
	k.Start()
	conn.Start()
	eng.Run(10 * time.Second)
	if err := k.Err(); err != nil {
		t.Fatalf("live run violated invariants: %v", err)
	}
	if got := rx.GoodBytes(); got != 2*units.MB {
		t.Fatalf("delivered %v, want 2MB", got)
	}
}

// TestCorruptionCaught proves the checker catches a deliberately skewed
// inflight counter on a live connection — as a structured error, not a panic.
func TestCorruptionCaught(t *testing.T) {
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatal(err)
	}
	var mod cc.CongestionControl = newFixedCC(32)
	conn := tcp.NewConn(0, eng, cpu, path, tcp.Config{},
		func() cc.CongestionControl { return mod })
	rx := tcp.NewReceiver(eng, path, conn)
	d := tcp.NewDemux()
	d.Add(rx)
	path.SetReceiver(d.Handle)
	k := New(eng, "exp=corrupt seed=1", time.Millisecond)
	k.Watch(conn)
	k.Start()
	conn.Start()
	eng.Schedule(100*time.Millisecond, func() { conn.CorruptInflightForTest(3) })
	eng.Run(200 * time.Millisecond)
	err = k.Err()
	if err == nil {
		t.Fatal("corrupted inflight counter not caught")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *check.Error", err)
	}
	if ce.Context != "exp=corrupt seed=1" {
		t.Errorf("run context = %q", ce.Context)
	}
	found := false
	for _, v := range ce.Violations {
		if v.Rule == "inflight/counter" && v.Conn == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no inflight/counter violation: %v", err)
	}
}

// TestStridedAuditReachesAll: with a stride smaller than the population,
// each pass audits a bounded window, but round-robin still reaches every
// connection — a corrupt conn beyond the first window is caught within
// ⌈len/stride⌉ passes.
func TestStridedAuditReachesAll(t *testing.T) {
	eng := sim.New(1)
	k := New(eng, "stride", 0)
	pop := make([]Auditable, 10)
	for i := range pop {
		a := healthy()
		a.ID = i
		if i == 7 {
			a.SegsSent += 3 // conservation break hidden past the first window
		}
		pop[i] = &stubAudit{a}
	}
	k.WatchDynamic(func() []Auditable { return pop })
	k.SetAuditStride(3)
	k.CheckNow()
	if err := k.Err(); err != nil {
		t.Fatalf("first window already flagged: %v", err)
	}
	for i := 0; i < 3; i++ {
		k.CheckNow()
	}
	err := k.Err()
	if err == nil {
		t.Fatal("strided audit never reached the corrupt conn")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *check.Error", err)
	}
	if ce.Violations[0].Conn != 7 || ce.Violations[0].Rule != "conservation/packets" {
		t.Fatalf("caught %v, want conservation/packets on conn 7", ce.Violations[0])
	}
}

// TestStridedHeldAcks covers the pool ACK-conservation cross-check under
// striding: a partial pass cannot sum the CPU-held count, so the check is
// skipped unless SetHeldAcks supplies the global figure — and with it the
// check is exact again.
func TestStridedHeldAcks(t *testing.T) {
	newStrided := func(t *testing.T) (*Checker, *seg.Pool) {
		t.Helper()
		eng := sim.New(1)
		path, err := netem.EthernetLAN(eng, netem.TC{})
		if err != nil {
			t.Fatal(err)
		}
		pool := seg.NewPool()
		pool.GetAck() // one ACK held behind a CPU somewhere, says the harness
		k := New(eng, "held", 0)
		pop := make([]Auditable, 8)
		for i := range pop {
			a := healthy()
			a.ID = i
			pop[i] = &stubAudit{a}
		}
		k.WatchDynamic(func() []Auditable { return pop })
		k.SetAuditStride(2)
		k.WatchPool(pool, path)
		return k, pool
	}

	t.Run("skipped without heldFn", func(t *testing.T) {
		k, _ := newStrided(t)
		k.CheckNow()
		if err := k.Err(); err != nil {
			t.Fatalf("partial pass flagged the unknowable ACK census: %v", err)
		}
	})
	t.Run("exact with heldFn", func(t *testing.T) {
		k, _ := newStrided(t)
		k.SetHeldAcks(func() int { return 1 })
		k.CheckNow()
		if err := k.Err(); err != nil {
			t.Fatalf("correct global held count flagged: %v", err)
		}
	})
	t.Run("mismatch caught with heldFn", func(t *testing.T) {
		k, _ := newStrided(t)
		k.SetHeldAcks(func() int { return 0 })
		k.CheckNow()
		err := k.Err()
		if err == nil || !strings.Contains(err.Error(), "pool/conservation") {
			t.Fatalf("ACK census mismatch not caught under striding: %v", err)
		}
	})
}

// TestForgetDropsWatermark: a retired flow's monotonic history is pruned,
// so a fresh flow later audited under churn (or a stub whose counters
// rewound after Forget) is not judged against the corpse's watermark.
func TestForgetDropsWatermark(t *testing.T) {
	eng := sim.New(1)
	k := New(eng, "forget", 0)
	s := &stubAudit{healthy()}
	k.Watch(s)
	k.CheckNow()
	k.Forget(s.a.ID)
	// Rewind as a recycled id would appear: small counters, still
	// self-consistent.
	s.a = tcp.Audit{ID: s.a.ID, Cwnd: 10, Ssthresh: 64, MaxCwnd: 180}
	k.CheckNow()
	if err := k.Err(); err != nil {
		t.Fatalf("forgotten watermark still enforced: %v", err)
	}
}

// TestDynamicPopulationChurn: the dynamic view is re-read each pass, so a
// population that shrinks between passes must not trip the positional
// cursor (regression guard for the cursor reset on shrink).
func TestDynamicPopulationChurn(t *testing.T) {
	eng := sim.New(1)
	k := New(eng, "churn", 0)
	pop := make([]Auditable, 9)
	for i := range pop {
		a := healthy()
		a.ID = i
		pop[i] = &stubAudit{a}
	}
	k.WatchDynamic(func() []Auditable { return pop })
	k.SetAuditStride(4)
	k.CheckNow()
	k.CheckNow() // cursor now sits at 8
	for _, c := range pop[2:] {
		k.Forget(c.Audit().ID)
	}
	pop = pop[:2] // shrink below the cursor and the stride
	k.CheckNow()
	k.CheckNow()
	if err := k.Err(); err != nil {
		t.Fatalf("shrinking population flagged: %v", err)
	}
}

// fixedCC is a minimal fixed-window module for live tests.
type fixedCC struct{ cwnd int }

func newFixedCC(cwnd int) *fixedCC                   { return &fixedCC{cwnd: cwnd} }
func (f *fixedCC) Name() string                      { return "fixed" }
func (f *fixedCC) Init(c cc.Conn)                    { c.SetCwnd(f.cwnd) }
func (f *fixedCC) OnAck(c cc.Conn, _ *cc.RateSample) { c.SetCwnd(f.cwnd) }
func (f *fixedCC) OnEvent(cc.Conn, cc.Event)         {}
func (f *fixedCC) AckCost() float64                  { return 100 }
func (f *fixedCC) WantsPacing() bool                 { return false }
