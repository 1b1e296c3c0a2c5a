package apps

import (
	"sort"
	"time"

	"mobbr/internal/cpumodel"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/units"
)

// Session drives one application workload over an iperf harness session.
// Every harness connection gets a client record that is its stream-event
// sink and its receiver's delivery listener, so the closed loop runs as
// engine callbacks: no goroutine, no channel.
type Session struct {
	eng *sim.Engine
	wl  Workload
	dur time.Duration
	is  *iperf.Session
	// downDelay is the modelled return stream's one-way latency: half the
	// path's no-load RTT.
	downDelay time.Duration

	clis []*client
}

// phase is where a client is in its closed loop.
type phase uint8

const (
	phaseIdle  phase = iota // start event not run yet
	phaseWait               // thinking (reqrep) or waiting for capture (stream)
	phaseWrite              // offering the operation to the send buffer
	phaseRead               // written; waiting for the response
	phaseDone               // the transport failed; the client has stopped
)

// client is one connection's application state: the uplink writer, the
// server that frames the byte stream and answers each operation, and the
// modelled server→client return stream. The heavy direction rides the full
// simulated TCP stack; responses ride a delay/rate model (the paper's
// return path carries only ACK-scale traffic).
type client struct {
	s     *Session
	tc    *tcp.Conn
	rx    *tcp.Receiver
	phase phase

	// The operation in flight: size bytes, started at t0. opLeft is what
	// is not yet cut into pieces, pieceLeft what StreamWrite has not yet
	// accepted of the current piece.
	size, opLeft, pieceLeft int64
	t0                      time.Duration

	// served is how many delivered bytes the server has already answered;
	// it answers the operation once size more have arrived.
	served int64
	// Return stream: each response piece serializes behind the previous
	// at DownRate (respBusyUntil), then arrives downDelay later. pieces
	// counts those still in flight; the last one completes the operation.
	respBusyUntil time.Duration
	pieces        int

	completed, canceled int64
	lat                 []float64 // ms per completed operation

	// KindStream only. Chunk k is captured at readyAt = start+k·Chunk.
	v         *viewer
	readyAt   time.Duration
	est       float64 // throughput EWMA, bits/sec
	level     int     // ladder rung of the chunk in flight
	levelBits float64 // Σ chosen ladder bitrate over completed chunks
	switches  int64
}

// New assembles a workload session. The iperf config is forced into
// stream-source mode; everything else (conns, duration, stagger, telemetry,
// pool) is honoured as for a bulk run. The workload must have passed
// Validate (core.Spec.Validate runs it).
func New(eng *sim.Engine, cpu *cpumodel.CPU, path *netem.Path, icfg iperf.Config, wl Workload) (*Session, error) {
	wl = wl.WithDefaults()
	icfg.Stream = true
	is, err := iperf.New(eng, cpu, path, icfg)
	if err != nil {
		return nil, err
	}
	s := &Session{eng: eng, wl: wl, dur: icfg.Duration, is: is, downDelay: path.MinRTT() / 2}
	conns, rxs := is.Conns(), is.Receivers()
	for i, tc := range conns {
		c := &client{s: s, tc: tc, rx: rxs[i]}
		if wl.Kind == KindStream {
			c.v = &viewer{chunk: wl.Chunk, startup: wl.Startup}
			c.est = float64(wl.Ladder[0])
			c.readyAt = eng.Now() + tc.StartDelay() // chunk 0 is captured at the start
		}
		tc.SetStreamEvents(c)
		rxs[i].SetDeliveryListener(c.delivered)
		s.clis = append(s.clis, c)
		// The client's first operation starts with its transport's
		// staggered kick, queued before the kick itself.
		eng.ScheduleP(tc.StartDelay(), clientWake, c)
	}
	return s, nil
}

// Iperf exposes the underlying harness session (the run checker watches
// its connections exactly as for a bulk run).
func (s *Session) Iperf() *iperf.Session { return s.is }

// Run executes the workload to the run horizon and returns the transport
// report plus the application stats.
func (s *Session) Run() (*iperf.Report, *Stats) {
	s.is.Start()
	s.eng.Run(s.dur)
	rep := s.is.Finish()
	return rep, s.collect()
}

// clientWake is the shared callback for a client's start and for the end
// of its think or capture wait: the next operation begins.
func clientWake(arg any) { arg.(*client).next() }

// next begins the client's next operation. A stream client first picks the
// chunk's ladder rung. If the transport has failed meanwhile, the write
// fails at once and the operation is canceled.
func (c *client) next() {
	s := c.s
	if s.wl.Kind == KindStream {
		c.pickLevel()
		c.size = int64(float64(s.wl.Ladder[c.level]) * s.wl.Chunk.Seconds() / 8)
		if c.size < 1 {
			c.size = 1
		}
	} else {
		c.size = int64(s.wl.ReqSize)
	}
	c.t0 = s.eng.Now()
	c.opLeft, c.pieceLeft = c.size, 0
	c.phase = phaseWrite
	c.pump()
}

// pickLevel is the ABR step: the highest rung at or below 80% of the
// estimated throughput, moving at most one rung per chunk.
func (c *client) pickLevel() {
	want := 0
	for i, r := range c.s.wl.Ladder {
		if float64(r) <= 0.8*c.est {
			want = i
		}
	}
	if want > c.level+1 {
		want = c.level + 1
	} else if want < c.level-1 {
		want = c.level - 1
	}
	if want != c.level {
		c.switches++
		c.level = want
	}
}

// pump offers the operation to the send buffer in pieces of at most
// ioChunk, re-offering each piece until it is fully accepted; when the
// buffer is full it returns and StreamWritable resumes it. Every
// StreamWrite runs the transport's send path, so the piece sizes are part
// of the event order.
func (c *client) pump() {
	for c.opLeft > 0 || c.pieceLeft > 0 {
		if c.pieceLeft == 0 {
			c.pieceLeft = min(c.opLeft, ioChunk)
			c.opLeft -= c.pieceLeft
		}
		n, err := c.tc.StreamWrite(c.pieceLeft)
		if err != nil {
			c.canceled++
			c.phase = phaseDone
			return
		}
		if n == 0 {
			return
		}
		c.pieceLeft -= n
	}
	c.phase = phaseRead
}

// StreamWritable implements tcp.StreamEvents: ACKs reopened buffer room.
func (c *client) StreamWritable() {
	if c.phase == phaseWrite {
		c.pump()
	}
}

// StreamDrained implements tcp.StreamEvents. The stream is never closed,
// so it never drains.
func (c *client) StreamDrained() {}

// StreamFailed implements tcp.StreamEvents: the operation in flight is
// canceled and the client stops. A client in its think or capture wait
// finds out when the wait ends and its next write fails.
func (c *client) StreamFailed(error) {
	if c.phase == phaseWrite || c.phase == phaseRead {
		c.canceled++
		c.phase = phaseDone
	}
}

// delivered is the receiver's delivery listener: once every byte of the
// operation has arrived, the server answers it.
func (c *client) delivered() {
	if c.phase != phaseRead || int64(c.rx.GoodBytes())-c.served < c.size {
		return
	}
	c.served += c.size
	s := c.s
	now := s.eng.Now()
	for left := int64(s.wl.RespSize); left > 0; {
		piece := min(left, ioChunk)
		left -= piece
		start := max(c.respBusyUntil, now)
		var tx time.Duration
		if s.wl.DownRate > 0 {
			tx = s.wl.DownRate.TimeToSend(units.DataSize(piece))
		}
		c.respBusyUntil = start + tx
		c.pieces++
		s.eng.SchedulePAt(start+tx+s.downDelay, respArrive, c)
	}
}

// respArrive is the shared callback for one response piece's arrival. The
// last piece completes the operation.
func respArrive(arg any) {
	c := arg.(*client)
	c.pieces--
	if c.pieces == 0 && c.phase == phaseRead {
		c.complete()
	}
}

// complete records the finished operation and moves on: a reqrep client
// thinks for a jittered Think, a stream client waits for the next capture
// instant. Without a wait the next operation starts at once.
func (c *client) complete() {
	s := c.s
	now := s.eng.Now()
	c.completed++
	if s.wl.Kind == KindStream {
		// Latency is capture→acknowledgement — the stream's glass-to-glass
		// contribution — so a stalled uplink shows up even though capture
		// never stops.
		c.lat = append(c.lat, ms(now-c.readyAt))
		c.levelBits += float64(s.wl.Ladder[c.level])
		if up := now - c.t0; up > 0 {
			meas := float64(c.size*8) / up.Seconds()
			c.est = 0.7*c.est + 0.3*meas
		}
		c.v.onChunk(now)
		c.readyAt += s.wl.Chunk
		if c.readyAt > now {
			c.wait(c.readyAt - now)
			return
		}
	} else {
		c.lat = append(c.lat, ms(now-c.t0))
		if s.wl.Think > 0 {
			// Uniform jitter in [Think/2, 3·Think/2) so clients desynchronize.
			c.wait(s.wl.Think/2 + time.Duration(s.eng.Rand().Int63n(int64(s.wl.Think))))
			return
		}
	}
	c.next()
}

// wait parks the client for d of virtual time.
func (c *client) wait(d time.Duration) {
	c.phase = phaseWait
	c.s.eng.ScheduleP(d, clientWake, c)
}

// collect finalizes the viewers at the run horizon and folds all clients
// into one Stats. An operation in flight at the horizon is canceled, and
// so is the first operation of a client whose start fell past it; a client
// in its think or capture wait has nothing in flight.
func (s *Session) collect() *Stats {
	out := &Stats{Kind: s.wl.Kind}
	var levelBits float64
	for _, c := range s.clis {
		switch c.phase {
		case phaseIdle, phaseWrite, phaseRead:
			c.canceled++
		}
		out.Completed += c.completed
		out.Canceled += c.canceled
		out.LatMs = append(out.LatMs, c.lat...)
		out.Switches += c.switches
		levelBits += c.levelBits
		if c.v != nil {
			c.v.advance(s.dur)
			out.Stalls += c.v.stalls
			out.PlayMs += c.v.playMs
			out.StallMs += c.v.stallMs
		}
	}
	sort.Float64s(out.LatMs)
	if t := out.PlayMs + out.StallMs; t > 0 {
		out.RebufferRatio = out.StallMs / t
	}
	if out.Completed > 0 && s.wl.Kind == KindStream {
		out.AvgLevelMbps = levelBits / float64(out.Completed) / 1e6
	}
	return out
}

// viewer models the remote playout buffer of one live stream: media
// accumulates per delivered chunk, plays out in real (virtual) time once
// Startup chunks are buffered, and stalls — accounted, with the startup
// wait excluded — when the buffer drains.
type viewer struct {
	chunk   time.Duration
	startup int

	started bool
	playing bool
	buf     time.Duration // buffered media
	last    time.Duration // virtual time of the last accounting advance

	playMs, stallMs float64
	stalls          int64
}

// advance accounts playout from the last advance up to now.
func (v *viewer) advance(now time.Duration) {
	dt := now - v.last
	v.last = now
	if !v.started || dt <= 0 {
		return
	}
	if v.playing {
		if v.buf >= dt {
			v.buf -= dt
			v.playMs += ms(dt)
			return
		}
		v.playMs += ms(v.buf)
		v.stallMs += ms(dt - v.buf)
		v.buf = 0
		v.playing = false
		v.stalls++
		return
	}
	v.stallMs += ms(dt)
}

// onChunk credits one chunk of media delivered at now.
func (v *viewer) onChunk(now time.Duration) {
	v.advance(now)
	v.buf += v.chunk
	if !v.started {
		if v.buf >= time.Duration(v.startup)*v.chunk {
			v.started, v.playing = true, true
		}
		return
	}
	if !v.playing && v.buf >= v.chunk {
		v.playing = true
	}
}

// ioChunk is the most an application hands the transport in one write,
// and the size of one response piece on the return stream.
const ioChunk = int64(64 * units.KB)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
