package tcp

import (
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/slab"
	"mobbr/internal/telemetry"
)

// Arena is what the connections of one run share: the wiring they are built
// with and the memory they are built from. A run builds one and drops it
// with everything else at run end; nothing in it outlives the run or is
// shared with another one running in parallel.
//
// Each connection and its receiver keep a pointer to their arena instead of
// copies of the wiring. The arena also owns the memory: slots, each holding
// one Conn/Receiver pair by value, and the scoreboard entries every
// connection draws from one freelist, so a run's entries peak at what its
// connections hold at once, not at the sum of each one's own peak. A
// ConnPool is an arena plus recycling; iperf's fixed population opens its
// pairs straight from one; NewConn builds a one-connection arena.
type Arena struct {
	eng *sim.Engine
	cpu *cpumodel.CPU
	// appCPU, when set, executes the tcp_sendmsg payload copy in process
	// context on the application core, in parallel with the softirq core's
	// transmit path. nil means the copy is not modelled (unit tests, flow
	// churn) — the softirq path alone gates sends.
	appCPU *cpumodel.CPU
	path   *netem.Path
	// cfg is the connections' transport config, with its defaults.
	cfg Config
	// pool is the run's packet/ACK recycler (nil in unit tests — every
	// acquire then heap-allocates).
	pool *seg.Pool
	// agg, when set, is the run-wide O(1) aggregate counter sink; ftab,
	// when set, is the NIC flow-table cost model charged per arriving ACK;
	// bus, when set, receives structured state/recovery/pacing events. All
	// nil by default, and hot paths guard every use with a nil-check.
	agg  *AggStats
	ftab *cpumodel.FlowTable
	bus  *telemetry.Bus

	// The receivers' engine (eng unless SetShard moved them), and in a
	// sharded run their shard's packet/ACK arena and the cross-shard ACK
	// return; both nil in serial runs.
	rxEng     *sim.Engine
	rxPool    *seg.Pool
	returnAck func(*seg.Ack)

	infos infoPool
	slots slab.Slab[connSlot]
}

// PooledConn is one Conn/Receiver pair: the handle to an arena slot.
type PooledConn struct {
	Conn *Conn
	Rx   *Receiver

	pool     *ConnPool // the pool recycling the slot; nil outside one
	dyingIdx int       // index in the pool's dying set, -1 otherwise
	// factory is the code pointer of the congestion-control factory that
	// built the slot's module, which a recycled slot keeps.
	factory uintptr
}

// connSlot is the memory behind one PooledConn.
type connSlot struct {
	PooledConn
	conn Conn
	rx   Receiver
}

// NewArena builds an arena that wires every connection to the given engine,
// CPUs, path, transport config, segment pool and (optional) aggregate sink
// and flow table. appCPU, segPool, agg and ftab may be nil.
func NewArena(eng *sim.Engine, cpu, appCPU *cpumodel.CPU, path *netem.Path,
	cfg Config, segPool *seg.Pool, agg *AggStats, ftab *cpumodel.FlowTable) *Arena {
	return &Arena{
		eng: eng, cpu: cpu, appCPU: appCPU, path: path, cfg: cfg.withDefaults(),
		pool: segPool, agg: agg, ftab: ftab, rxEng: eng,
	}
}

// SetBus sends every connection's structured telemetry events to bus. Call
// before the connections' SetTelemetry, which reads it.
func (a *Arena) SetBus(bus *telemetry.Bus) { a.bus = bus }

// SetShard moves the receivers onto another engine shard: they schedule on
// rxEng, release packets to and take ACKs from rxPool, the receiver shard's
// arena, and return ACKs through returnAck (the cross-shard mailbox) instead
// of the path. Call before Open.
func (a *Arena) SetShard(rxEng *sim.Engine, rxPool *seg.Pool, returnAck func(*seg.Ack)) {
	a.rxEng, a.rxPool, a.returnAck = rxEng, rxPool, returnAck
}

// Reserve makes the arena's next n new slots one allocation of exactly n,
// for a caller that knows its population up front. Otherwise slots come in
// chunks of about 8 doubling to 256, grown on demand, never sized to the
// caller's population.
func (a *Arena) Reserve(n int) { a.slots.Reserve(n) }

// Open builds a pair for flow id on a slot no flow has used, with its
// congestion module from factory and its first transmission delayed by
// startDelay. The receiver is registered on the path's ACK return; the
// caller adds it to the demux and configures stream mode and events before
// Start.
func (a *Arena) Open(id int, startDelay time.Duration, factory cc.Factory) *PooledConn {
	s := a.slots.NextIn(8, 256)
	s.PooledConn = PooledConn{Conn: &s.conn, Rx: &s.rx, dyingIdx: -1}
	s.conn = Conn{arena: a, home: &s.PooledConn, startDelay: startDelay}
	s.conn.open(id, factory)
	s.rx = Receiver{arena: a, conn: &s.conn}
	s.rx.open()
	return &s.PooledConn
}
