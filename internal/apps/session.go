package apps

import (
	"fmt"
	"sort"
	"time"

	"mobbr/internal/cpumodel"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/simnet"
	"mobbr/internal/units"
)

// Session drives one application workload over an iperf harness session:
// every harness connection gets a (client, server) virtual-socket pair and
// a pair of simnet procs running the workload's closed loop.
type Session struct {
	eng *sim.Engine
	wl  Workload
	dur time.Duration
	is  *iperf.Session
	net *simnet.Net
	// buf is every proc's scratch buffer: the sockets move lengths only and
	// never read or write its bytes, so one buffer serves them all.
	buf []byte

	clis []*clientState
}

// clientState is one connection's application state. All fields are
// touched only under the simnet baton, so no locking is needed.
type clientState struct {
	cl, sv *simnet.Conn

	// pending frames the byte stream: the client pushes each operation's
	// size before writing it, the server pops a frame once that many
	// bytes have been consumed and sends the response.
	pending []int64

	completed, canceled int64
	lat                 []float64 // ms per completed operation

	// KindStream only.
	v         *viewer
	levelBits float64 // Σ chosen ladder bitrate over completed chunks
	switches  int64
}

// New assembles a workload session. The iperf config is forced into
// stream-source mode; everything else (conns, duration, stagger, telemetry,
// pool) is honoured as for a bulk run.
func New(eng *sim.Engine, cpu *cpumodel.CPU, path *netem.Path, icfg iperf.Config, wl Workload) (*Session, error) {
	wl = wl.WithDefaults()
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if wl.Kind == "" {
		return nil, fmt.Errorf("apps: empty workload kind (run iperf directly)")
	}
	if icfg.Duration <= 0 {
		icfg.Duration = 10 * time.Second // match the iperf default
	}
	icfg.Stream = true
	is, err := iperf.New(eng, cpu, path, icfg)
	if err != nil {
		return nil, err
	}
	n := simnet.New(eng)
	pcfg := simnet.PairConfig{DownDelay: path.MinRTT() / 2, DownRate: wl.DownRate}
	s := &Session{eng: eng, wl: wl, dur: icfg.Duration, is: is, net: n, buf: make([]byte, ioChunk)}
	conns, rxs := is.Conns(), is.Receivers()
	for i := range conns {
		cl, sv := n.Wrap(conns[i], rxs[i], pcfg)
		st := &clientState{cl: cl, sv: sv}
		if wl.Kind == KindStream {
			st.v = &viewer{chunk: wl.Chunk, startup: wl.Startup}
		}
		s.clis = append(s.clis, st)
		// The client proc starts with its transport's staggered kick; the
		// server proc parks immediately on an empty receive stream.
		n.Go(conns[i].StartDelay(), func(p *simnet.Proc) { s.runClient(p, st) })
		n.Go(0, func(p *simnet.Proc) { s.runServer(p, st) })
	}
	return s, nil
}

// Iperf exposes the underlying harness session (the run checker watches
// its connections exactly as for a bulk run).
func (s *Session) Iperf() *iperf.Session { return s.is }

// Run executes the workload to the run horizon and returns the transport
// report plus the application stats. Procs still mid-operation at the
// horizon are unwound (counted as canceled) before the harness collects.
func (s *Session) Run() (*iperf.Report, *Stats) {
	s.is.Start()
	s.eng.Run(s.dur)
	s.net.Shutdown()
	rep := s.is.Finish()
	return rep, s.collect()
}

func (s *Session) runClient(p *simnet.Proc, st *clientState) {
	if s.wl.Kind == KindStream {
		s.runStreamClient(p, st)
	} else {
		s.runReqRepClient(p, st)
	}
}

// runReqRepClient is the closed request/response loop: upload ReqSize,
// read the RespSize reply, think, repeat.
func (s *Session) runReqRepClient(p *simnet.Proc, st *clientState) {
	buf := s.buf
	for {
		t0 := s.eng.Now()
		st.pending = append(st.pending, int64(s.wl.ReqSize))
		if !writeFull(st.cl, buf, int64(s.wl.ReqSize)) ||
			!readFull(st.cl, buf, int64(s.wl.RespSize)) {
			st.canceled++
			return
		}
		st.completed++
		st.lat = append(st.lat, ms(s.eng.Now()-t0))
		if s.wl.Think > 0 {
			// Uniform jitter in [Think/2, 3·Think/2) so clients desynchronize.
			d := s.wl.Think/2 + time.Duration(s.eng.Rand().Int63n(int64(s.wl.Think)))
			if s.net.Sleep(p, d) != nil {
				return // horizon hit between requests: nothing in flight
			}
		}
	}
}

// runStreamClient is the live chunked uploader: chunk k is captured at
// start+k·Chunk, encoded at the ABR-chosen ladder rung, uploaded and
// acknowledged. Latency is capture→acknowledgement — the stream's glass-
// to-glass contribution — so a stalled uplink shows up even though capture
// never stops.
func (s *Session) runStreamClient(p *simnet.Proc, st *clientState) {
	buf := s.buf
	start := s.eng.Now()
	est := float64(s.wl.Ladder[0]) // throughput EWMA, bits/sec
	level := 0
	for k := 0; ; k++ {
		readyAt := start + time.Duration(k)*s.wl.Chunk
		if now := s.eng.Now(); readyAt > now {
			if s.net.Sleep(p, readyAt-now) != nil {
				return // horizon hit before the next capture
			}
		}
		// ABR: highest rung at or below 80% of estimated throughput,
		// moving at most one rung per chunk.
		want := 0
		for i, r := range s.wl.Ladder {
			if float64(r) <= 0.8*est {
				want = i
			}
		}
		if want > level+1 {
			want = level + 1
		} else if want < level-1 {
			want = level - 1
		}
		if want != level {
			st.switches++
			level = want
		}
		size := int64(float64(s.wl.Ladder[level]) * s.wl.Chunk.Seconds() / 8)
		if size < 1 {
			size = 1
		}
		st.pending = append(st.pending, size)
		t0 := s.eng.Now()
		if !writeFull(st.cl, buf, size) || !readFull(st.cl, buf, int64(s.wl.RespSize)) {
			st.canceled++
			return
		}
		now := s.eng.Now()
		st.completed++
		st.lat = append(st.lat, ms(now-readyAt))
		st.levelBits += float64(s.wl.Ladder[level])
		if up := now - t0; up > 0 {
			meas := float64(size*8) / up.Seconds()
			est = 0.7*est + 0.3*meas
		}
		st.v.onChunk(now)
	}
}

// runServer consumes the uplink byte stream and answers one RespSize
// response per framed operation. The frame queue is pushed by the client
// before it writes, so under the baton a consumed byte always belongs to
// an already-framed operation.
func (s *Session) runServer(_ *simnet.Proc, st *clientState) {
	buf := s.buf
	var acc int64
	for {
		for len(st.pending) > 0 && acc >= st.pending[0] {
			acc -= st.pending[0]
			st.pending = st.pending[1:]
			if !writeFull(st.sv, buf, int64(s.wl.RespSize)) {
				return
			}
		}
		n, err := st.sv.Read(buf)
		acc += int64(n)
		if err != nil {
			return
		}
	}
}

// collect finalizes the viewers at the run horizon and folds all clients
// into one Stats.
func (s *Session) collect() *Stats {
	out := &Stats{Kind: s.wl.Kind}
	var levelBits float64
	for _, st := range s.clis {
		out.Completed += st.completed
		out.Canceled += st.canceled
		out.LatMs = append(out.LatMs, st.lat...)
		out.Switches += st.switches
		levelBits += st.levelBits
		if st.v != nil {
			st.v.advance(s.dur)
			out.Stalls += st.v.stalls
			out.PlayMs += st.v.playMs
			out.StallMs += st.v.stallMs
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

// ioChunk sizes the scratch buffer the workload loops push through the
// virtual sockets (payloads are synthetic; only lengths travel).
const ioChunk = 64 * units.KB

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeFull pushes exactly n bytes through c, chunked by buf. Returns
// false on any error (horizon shutdown, transport failure).
func writeFull(c *simnet.Conn, buf []byte, n int64) bool {
	for n > 0 {
		b := buf
		if int64(len(b)) > n {
			b = b[:n]
		}
		m, err := c.Write(b)
		n -= int64(m)
		if err != nil {
			return false
		}
	}
	return true
}

// readFull consumes exactly n bytes from c, chunked by buf.
func readFull(c *simnet.Conn, buf []byte, n int64) bool {
	for n > 0 {
		b := buf
		if int64(len(b)) > n {
			b = b[:n]
		}
		m, err := c.Read(b)
		n -= int64(m)
		if err != nil {
			return false
		}
	}
	return true
}
