package tcp

import (
	"fmt"
	"reflect"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
)

// ConnPool is an Arena plus recycling across flow churn, modeled on
// seg.Pool's leak-audited discipline: every Get is matched by a Put, the
// pool counts what is outstanding, and a run ends balanced — zero live,
// zero dying — or the audit says exactly what leaked.
//
// A flow is one arena slot, which holds everything the flow's two endpoints
// need by value — the Conn with its pacer, min-RTT filter and small inline
// scoreboard buffers, the Receiver, the PooledConn handle — while scoreboard
// entries come from the arena's one infoPool. A slot also keeps its
// congestion module, built by the factory for the slot's first flow and
// re-initialised by Init for each later one. A flow's recycling allocates
// nothing.
//
// Lifecycle state machine (see DESIGN.md "million-flow data path"):
//
//	free ──Get(id)──▶ live ──Put──▶ dying ──quiescent──▶ free
//	                                  │
//	                                  └─Reclaim (run end)──▶ free
//
// Put stops the connection but must NOT recycle it immediately: ACKs the
// network already delivered may still sit behind the CPU model
// (pendingAcks), and a transmit, app-copy, RTO or pacing-expiry job, a TSQ
// poll or the start kick may still be scheduled — each one counted in the
// connection's pending work. Recycling earlier would let those events mutate
// the *next* flow's state. The conn therefore parks in the dying set until
// the last of them lands, and only then returns to the free list. ACKs still in network flight are the path's problem: callers retire
// the flow id (netem.Path.RetireFlow) before Put, so late ACKs hit a
// tombstone, never a recycled conn.
//
// Ids are never reused; each Get takes a fresh flow id, which keeps the
// demux map, the path's per-flow ACK table and the invariant checker's
// history unambiguous under churn.
type ConnPool struct {
	arena *Arena
	free  []*PooledConn
	dying []*PooledConn

	gets, reuses  int
	puts          int
	outstanding   int
	outstandingHW int
}

// NewConnPool builds a pool on an arena with the given wiring (see
// NewArena). appCPU, agg and ftab may be nil.
func NewConnPool(eng *sim.Engine, cpu, appCPU *cpumodel.CPU, path *netem.Path,
	cfg Config, segPool *seg.Pool, agg *AggStats, ftab *cpumodel.FlowTable) *ConnPool {
	return &ConnPool{arena: NewArena(eng, cpu, appCPU, path, cfg, segPool, agg, ftab)}
}

// Get returns a connection for a fresh flow id: recycled from the free list
// when possible, otherwise opened on the arena's next unused slot. Either way
// the pair runs the initialisers a new pair runs, so the two are
// indistinguishable to the simulation. The receiver is registered on the
// path's ACK return; the caller adds it to the demux and configures stream
// mode and events before Start.
//
// factory builds a new slot's congestion module only; a recycled slot
// re-initialises the module it kept. New slots may take different
// factories, but Get panics when the slot it would recycle was built by
// another factory than the one it is handed. The check compares code
// pointers, which the compiler may duplicate when it inlines the function
// that returns a closure: hand every Get for one congestion control one
// factory value.
func (p *ConnPool) Get(id int, factory cc.Factory) *PooledConn {
	fp := reflect.ValueOf(factory).Pointer()
	n := len(p.free)
	if n > 0 && p.free[n-1].factory != fp {
		panic(fmt.Sprintf("tcp: ConnPool.Get of conn %d recycles a slot another congestion-control factory built", id))
	}
	p.gets++
	p.outstanding++
	if p.outstanding > p.outstandingHW {
		p.outstandingHW = p.outstanding
	}
	if n > 0 {
		pc := p.free[n-1]
		p.free = p.free[:n-1]
		p.reuses++
		pc.Conn.Reset(id)
		pc.Rx.Reset()
		return pc
	}
	pc := p.arena.Open(id, 0, factory)
	pc.pool, pc.factory = p, fp
	return pc
}

// Put releases a finished flow's pair back to the pool: the connection is
// stopped and parked in the dying set until quiescent, then recycled. The
// caller must already have unregistered the flow everywhere late traffic
// could reach it (demux, path tombstone, flow table).
func (p *ConnPool) Put(pc *PooledConn) {
	if pc.dyingIdx != -1 {
		panic(fmt.Sprintf("tcp: ConnPool.Put of conn %d already dying", pc.Conn.id))
	}
	p.puts++
	p.outstanding--
	if p.outstanding < 0 {
		panic("tcp: ConnPool.Put without matching Get")
	}
	pc.Conn.Stop()
	// A GRO flush still armed dies here, not at the next Get: whether and
	// when the pair is reused must not decide whether that event runs.
	pc.Rx.flush.Stop()
	pc.dyingIdx = len(p.dying)
	p.dying = append(p.dying, pc)
	pc.Conn.maybeQuiet()
}

// recycle moves a quiescent pair from the dying set to the free list
// (O(1) swap-remove; ordering within the sets is irrelevant — ids are
// fresh on every Get).
func (p *ConnPool) recycle(pc *PooledConn) {
	i := pc.dyingIdx
	last := len(p.dying) - 1
	p.dying[i] = p.dying[last]
	p.dying[i].dyingIdx = i
	p.dying = p.dying[:last]
	pc.dyingIdx = -1
	p.free = append(p.free, pc)
}

// Reclaim force-quiesces every dying connection after the engine has
// stopped: the CPU-completion events that would have drained them never
// fire past the run horizon, so their held ACKs go back to the segment
// pool and the pairs to the free list. After Reclaim a leak-free run shows
// Outstanding == 0 and Dying == 0.
func (p *ConnPool) Reclaim() {
	for len(p.dying) > 0 {
		pc := p.dying[len(p.dying)-1]
		pc.Conn.ForceQuiesce()
		p.dying = p.dying[:len(p.dying)-1]
		pc.dyingIdx = -1
		p.free = append(p.free, pc)
	}
}

// ConnPoolStats is the pool's audit census.
type ConnPoolStats struct {
	// Created counts fresh constructions; Gets and Reuses total and
	// recycled acquisitions (Reuses/Gets is the churn hit rate).
	Created, Gets, Reuses int
	// Puts counts releases.
	Puts int
	// Outstanding is live pairs (Get minus Put); OutstandingHW its
	// high-water mark — the run's peak concurrent flow count.
	Outstanding, OutstandingHW int
	// Free and Dying are the pool-held sets at snapshot time.
	Free, Dying int
}

// Balanced reports a leak-free census: nothing outstanding, nothing dying.
func (s ConnPoolStats) Balanced() bool { return s.Outstanding == 0 && s.Dying == 0 }

// Stats returns the pool's census.
func (p *ConnPool) Stats() ConnPoolStats {
	return ConnPoolStats{
		Created: p.arena.slots.Issued(), Gets: p.gets, Reuses: p.reuses, Puts: p.puts,
		Outstanding: p.outstanding, OutstandingHW: p.outstandingHW,
		Free: len(p.free), Dying: len(p.dying),
	}
}
