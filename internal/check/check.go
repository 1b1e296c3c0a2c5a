// Package check is the simulation's opt-in invariant checker: a periodic
// auditor that walks every connection's bookkeeping and the engine clock,
// and turns accounting bugs into structured violation errors instead of
// silently corrupt results. It verifies conservation (every segment ever
// sent is delivered, lost-pending or in flight — in packets and bytes),
// sequence monotonicity, congestion-window and pacing-rate sanity, and
// event-clock monotonicity.
//
// The checker is wired into core.Run behind Spec.Check and into tests; it
// reports, never panics.
package check

import (
	"fmt"
	"strings"
	"time"

	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// maxPacingRate is the sanity ceiling for a connection's pacing rate; no
// modelled mobile path is within two orders of magnitude of 1 Tbps.
const maxPacingRate = 1000 * units.Gbps

// maxViolations bounds how many violations one run collects before the
// checker stops auditing (the first few are the informative ones).
const maxViolations = 16

// DefaultInterval is how often the periodic audit runs in virtual time.
const DefaultInterval = 50 * time.Millisecond

// Violation is one failed invariant with enough context to debug it.
type Violation struct {
	// Rule names the invariant, e.g. "conservation/packets".
	Rule string
	// At is the virtual time of the audit that caught it.
	At time.Duration
	// Conn is the connection id, or -1 for sim-wide invariants.
	Conn int
	// Detail is the human-readable expectation vs observation.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	who := "sim"
	if v.Conn >= 0 {
		who = fmt.Sprintf("conn %d", v.Conn)
	}
	return fmt.Sprintf("invariant %q violated at %v on %s: %s", v.Rule, v.At, who, v.Detail)
}

// Error aggregates a run's violations with its run context (experiment,
// seed, congestion control — whatever the caller labels the run with).
type Error struct {
	Context    string
	Violations []*Violation
}

// Error implements error.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant check failed (%s): %d violation(s)", e.Context, len(e.Violations))
	for i, v := range e.Violations {
		if i >= 4 {
			fmt.Fprintf(&b, "; … %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.Error())
	}
	return b.String()
}

// FirstRule returns the rule name of the first violation — the stable
// fingerprint of what went wrong first (later violations are usually
// cascade). The chaos shrinker matches candidate failures on it.
func (e *Error) FirstRule() string {
	if len(e.Violations) == 0 {
		return ""
	}
	return e.Violations[0].Rule
}

// Auditable is what the checker watches — anything that can produce a
// tcp.Audit bookkeeping snapshot (in practice *tcp.Conn).
type Auditable interface {
	Audit() tcp.Audit
}

// prev is the per-connection monotonic watermark from the last audit.
type prev struct {
	sndUna    int64
	delivered int64
	segsSent  int64
}

// Checker audits a set of connections against the sim-wide invariants.
type Checker struct {
	eng      *sim.Engine
	ctx      string
	interval time.Duration

	conns   []Auditable
	dynamic func() []Auditable
	stride  int
	cursor  int
	heldFn  func() int
	prevs   map[int]prev
	lastNow time.Duration
	started bool
	tickFn  func() // bound once in Start: re-arming allocates nothing
	bus     *telemetry.Bus

	// Pool audit state: the run's packet/ACK pool and the path whose
	// in-transit census its outstanding counts are checked against.
	pool         PoolAuditor
	poolPath     *netem.Path
	poolReported int // pool violations already surfaced
	// crossPkts/crossAcks extend the census to cross-shard custody (packets
	// and ACKs inside shard mailboxes); nil in serial runs.
	crossPkts, crossAcks func() int

	violations []*Violation
}

// New creates a checker for one run. ctx labels the run in error output
// (e.g. "exp=recovery cc=bbr seed=1"). interval <= 0 uses DefaultInterval.
func New(eng *sim.Engine, ctx string, interval time.Duration) *Checker {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Checker{
		eng:      eng,
		ctx:      ctx,
		interval: interval,
		prevs:    make(map[int]prev),
		lastNow:  -1,
	}
}

// Watch adds a connection to the audit set.
func (k *Checker) Watch(c Auditable) { k.conns = append(k.conns, c) }

// WatchDynamic replaces the static audit set with a live view: each pass
// asks src for the current population. Churn workloads use it — flows
// come and go, so a list captured at assembly time would audit corpses
// and miss newcomers. The returned slice is only read during the pass.
func (k *Checker) WatchDynamic(src func() []Auditable) { k.dynamic = src }

// SetAuditStride bounds one audit pass to at most n connections, visited
// round-robin across passes (0, the default, audits all). Large dynamic
// populations keep per-pass cost O(stride) instead of O(conns); every
// connection is still reached every ⌈len/n⌉ passes. While striding, the
// pool's ACK-conservation cross-check needs the global held count —
// supply it with SetHeldAcks, or it is skipped.
func (k *Checker) SetAuditStride(n int) { k.stride = n }

// SetHeldAcks supplies the global CPU-held ACK count (typically
// tcp.AggStats.HeldAcks, which also counts stopped connections still
// draining). Without it the checker sums HeldAcks over the connections it
// audited — exact only when a pass covers the full set.
func (k *Checker) SetHeldAcks(fn func() int) { k.heldFn = fn }

// Forget drops a retired connection's monotonic-counter history. Churn
// workloads call it from their release path: ids are never reused, so
// without pruning the watermark map grows with every flow ever started.
func (k *Checker) Forget(id int) { delete(k.prevs, id) }

// PoolAuditor is the census surface WatchPool audits: a run's single
// *seg.Pool, or a sharded run's *seg.PoolSet whose summed arenas obey the
// same conservation invariant.
type PoolAuditor interface {
	Stats() seg.PoolStats
	Violations() []seg.Violation
}

// WatchPool adds the run's packet/ACK pool to the audit set. Each audit
// pass surfaces the pool's own lifecycle violations (double releases,
// foreign releases) and cross-checks its outstanding-object counts against
// the network's census: every live packet must be inside the path, and
// every live ACK either in return flight or parked behind a watched
// connection's CPU model.
func (k *Checker) WatchPool(pool PoolAuditor, path *netem.Path) {
	k.pool = pool
	k.poolPath = path
}

// SetCrossCensus extends the conservation audit to cross-shard custody:
// pkts and acks return the objects currently inside shard mailboxes
// (posted or held for delivery on the far shard). With these installed the
// packet invariant becomes outstanding == path in-transit + cross custody,
// which is what makes a packet leaked in a mailbox visible within one
// audit cycle.
func (k *Checker) SetCrossCensus(pkts, acks func() int) {
	k.crossPkts = pkts
	k.crossAcks = acks
}

// SetBus mirrors every violation onto the telemetry bus (KindViolation), so
// traces show what the checker caught in-line with the transport events.
func (k *Checker) SetBus(b *telemetry.Bus) { k.bus = b }

// Start arms the periodic audit on the engine clock.
func (k *Checker) Start() {
	if k.started {
		return
	}
	k.started = true
	k.tickFn = k.tick
	k.eng.Schedule(k.interval, k.tickFn)
}

func (k *Checker) tick() {
	k.CheckNow()
	if len(k.violations) < maxViolations {
		k.eng.Schedule(k.interval, k.tickFn)
	}
}

// report records a violation unless the cap is reached.
func (k *Checker) report(rule string, conn int, format string, args ...any) {
	if len(k.violations) >= maxViolations {
		return
	}
	v := &Violation{
		Rule:   rule,
		At:     k.eng.Now(),
		Conn:   conn,
		Detail: fmt.Sprintf(format, args...),
	}
	k.violations = append(k.violations, v)
	if k.bus != nil {
		k.bus.Emit(telemetry.Event{
			Kind: telemetry.KindViolation, Conn: conn,
			New: v.Rule, Old: v.Detail,
		})
	}
}

// CheckNow runs one audit pass immediately.
func (k *Checker) CheckNow() {
	if len(k.violations) >= maxViolations {
		return
	}
	now := k.eng.Now()
	if now < k.lastNow {
		k.report("clock/monotonic", -1, "engine clock went backwards: %v after %v", now, k.lastNow)
	}
	k.lastNow = now
	// Scheduler self-audit: the event queue's freelist/heap/wheel accounting
	// must stay conserved (no leaked or double-owned items, counters exact).
	if err := k.eng.CheckQueue(); err != nil {
		k.report("engine/queue-depth", -1, "%v", err)
	}
	conns := k.conns
	if k.dynamic != nil {
		conns = k.dynamic()
	}
	heldAcks := 0
	full := true
	if k.stride > 0 && len(conns) > k.stride {
		// Amortized audit: a stride-sized round-robin window. The cursor
		// is positional, not identity-based — under churn a swap-removed
		// connection may be skipped or revisited one pass early, which
		// only affects when it is next audited, never correctness.
		full = false
		if k.cursor >= len(conns) {
			k.cursor = 0
		}
		for i := 0; i < k.stride; i++ {
			a := conns[(k.cursor+i)%len(conns)].Audit()
			heldAcks += a.HeldAcks
			k.auditConn(a)
		}
		k.cursor = (k.cursor + k.stride) % len(conns)
	} else {
		for _, c := range conns {
			a := c.Audit()
			heldAcks += a.HeldAcks
			k.auditConn(a)
		}
	}
	if k.heldFn != nil {
		k.auditPool(k.heldFn())
	} else if full {
		k.auditPool(heldAcks)
	} else {
		k.auditPool(-1)
	}
}

// auditPool applies the memory-lifecycle invariants: the pool's own
// violation log is drained into the checker, and its outstanding counts
// must equal the holders' census. heldAcks < 0 means the global CPU-held
// count is unknown this pass (strided audit without SetHeldAcks) — the
// ACK-conservation check is skipped, the rest still runs.
func (k *Checker) auditPool(heldAcks int) {
	if k.pool == nil {
		return
	}
	vs := k.pool.Violations()
	for ; k.poolReported < len(vs); k.poolReported++ {
		k.report("pool/lifecycle", -1, "%s", vs[k.poolReported])
	}
	st := k.pool.Stats()
	inPath := k.poolPath.InTransit()
	if k.crossPkts != nil {
		inPath += k.crossPkts()
	}
	if st.OutstandingPackets != inPath {
		k.report("pool/conservation", -1,
			"outstanding packets %d != network in-transit %d", st.OutstandingPackets, inPath)
	}
	if heldAcks < 0 {
		return
	}
	inFlight := k.poolPath.AckInFlight()
	if k.crossAcks != nil {
		inFlight += k.crossAcks()
	}
	if st.OutstandingAcks != inFlight+heldAcks {
		k.report("pool/conservation", -1,
			"outstanding ACKs %d != return-flight %d + cpu-held %d",
			st.OutstandingAcks, inFlight, heldAcks)
	}
}

// CheckLeaks is the end-of-run pool audit, called after the harness has
// reclaimed the network's hold buffers: any object still outstanding was
// acquired and never released anywhere — a leak.
func (k *Checker) CheckLeaks() {
	if k.pool == nil {
		return
	}
	st := k.pool.Stats()
	if st.OutstandingPackets != 0 {
		k.report("pool/leak", -1, "%d packets outstanding after run-end reclaim", st.OutstandingPackets)
	}
	if st.OutstandingAcks != 0 {
		k.report("pool/leak", -1, "%d ACKs outstanding after run-end reclaim", st.OutstandingAcks)
	}
}

// auditConn applies the per-connection invariants to one snapshot.
func (k *Checker) auditConn(a tcp.Audit) {
	// Sequence space sanity.
	if a.SndUna < 0 || a.SndNxt < a.SndUna {
		k.report("sequence/order", a.ID, "sndNxt %d < sndUna %d", a.SndNxt, a.SndUna)
	}

	// Conservation, packets: every new-data segment ever created is
	// exactly one of delivered, in flight, or lost-awaiting-retransmit.
	if got := a.Delivered + int64(a.BoardInflight) + int64(a.BoardLostPending); got != a.SegsSent {
		k.report("conservation/packets", a.ID,
			"segsSent %d != delivered %d + inflight %d + lostPending %d (= %d)",
			a.SegsSent, a.Delivered, a.BoardInflight, a.BoardLostPending, got)
	}

	// Conservation, bytes: the live scoreboard spans exactly the unacked
	// sequence range.
	if want := a.SndNxt - a.SndUna; a.LiveBytes != want {
		k.report("conservation/bytes", a.ID,
			"live scoreboard bytes %d != sndNxt-sndUna %d", a.LiveBytes, want)
	}

	// Counter cross-check: the transport's inflight counter must agree
	// with the scoreboard walk.
	if a.Inflight != a.BoardInflight {
		k.report("inflight/counter", a.ID,
			"inflight counter %d != scoreboard walk %d", a.Inflight, a.BoardInflight)
	}
	if a.Inflight < 0 {
		k.report("inflight/negative", a.ID, "inflight counter is %d", a.Inflight)
	}

	// Monotonic counters.
	p, seen := k.prevs[a.ID]
	if seen {
		if a.SndUna < p.sndUna {
			k.report("sequence/una-monotonic", a.ID, "sndUna %d < previous %d", a.SndUna, p.sndUna)
		}
		if a.Delivered < p.delivered {
			k.report("delivered/monotonic", a.ID, "delivered %d < previous %d", a.Delivered, p.delivered)
		}
		if a.SegsSent < p.segsSent {
			k.report("segs-sent/monotonic", a.ID, "segsSent %d < previous %d", a.SegsSent, p.segsSent)
		}
	}
	k.prevs[a.ID] = prev{sndUna: a.SndUna, delivered: a.Delivered, segsSent: a.SegsSent}

	// Window and rate sanity.
	if a.Cwnd < 1 || (a.MaxCwnd > 0 && a.Cwnd > a.MaxCwnd) {
		k.report("cwnd/bounds", a.ID, "cwnd %d outside [1, %d]", a.Cwnd, a.MaxCwnd)
	}
	if a.Ssthresh < 2 {
		k.report("ssthresh/bounds", a.ID, "ssthresh %d < 2", a.Ssthresh)
	}
	if a.PacingRate < 0 || a.PacingRate > maxPacingRate {
		k.report("pacing/bounds", a.ID, "pacing rate %v outside [0, %v]", a.PacingRate, maxPacingRate)
	}
}

// Err returns nil when every audit passed, or the aggregated *Error.
func (k *Checker) Err() error {
	if len(k.violations) == 0 {
		return nil
	}
	return &Error{Context: k.ctx, Violations: k.violations}
}
