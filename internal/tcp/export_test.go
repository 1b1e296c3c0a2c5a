package tcp

// DropFree makes the pool forget its free list, so the next Get builds on an
// unused slot. A test that steps the engine and calls DropFree after every
// event gets a run in which no connection object is ever reused — the
// reference TestRecycledEqualsFresh compares the pooled run against. (No
// event both recycles a connection and opens a flow, so nothing recycled
// within an event can be picked up before the drop.) It is also the recycle
// detector's seam: a dropped slot's pending count stays zero, so a callback
// that outlives its incarnation panics in land instead of landing on a
// later flow.
func (p *ConnPool) DropFree() { p.free = p.free[:0] }
