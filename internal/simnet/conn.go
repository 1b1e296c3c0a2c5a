package simnet

import (
	"io"
	"net"
	"time"

	"mobbr/internal/tcp"
	"mobbr/internal/units"
)

// PairConfig parameterizes the modelled server→client return stream. The
// testbed's heavy direction is the phone's uplink, which rides the full
// simulated TCP stack; responses ride a delay/rate model (the paper's
// return path carries only ACK-scale traffic).
type PairConfig struct {
	// DownDelay is the one-way response latency (typically half the
	// path's no-load RTT).
	DownDelay time.Duration
	// DownRate serializes responses before the delay (0 = pure delay).
	DownRate units.Bandwidth
}

// pair couples the two endpoints of one simulated connection.
type pair struct {
	n   *Net
	tc  *tcp.Conn
	rx  *tcp.Receiver
	cfg PairConfig

	// Client→server: the simulated uplink TCP stack. finAt is the client
	// write offset at Close (-1 while open); srvConsumed is how much
	// of the delivered stream the server has read; upErr records a
	// transport failure (connection declared dead).
	finAt       int64
	srvConsumed int64
	upErr       error

	// Server→client: the modelled return stream. Writes never block;
	// each response serializes behind the previous (respBusyUntil) at
	// DownRate, then arrives DownDelay later as readable bytes. Arrival
	// times never decrease and equal times fire in schedule order, so the
	// in-flight sizes form a FIFO: respSizes[respHead:], oldest first.
	respAvail     int64
	respSizes     []int64
	respHead      int
	respBusyUntil time.Duration
	srvWClosed    bool

	cliClosed, srvClosed bool

	// Registered blocking operations (one reader and one writer per
	// endpoint side at a time).
	cliRead, cliWrite, srvRead *waiter
}

// Conn is one endpoint of a simulated connection: blocking Read, Write and
// Close with all timing in virtual time and io/net error values (io.EOF,
// net.ErrClosed); payload bytes are synthetic (only lengths travel, as
// everywhere in the simulator). Each endpoint must be driven from proc
// context (inside a Net.Go body), one blocking reader and writer at a
// time; Close may be called from any proc.
type Conn struct {
	p      *pair
	server bool
}

// Wrap couples an existing stream-mode tcp.Conn and its Receiver into a
// (client, server) endpoint pair. The tcp.Conn must have SetStream called
// already (the iperf harness does this for Config.Stream sessions); Wrap
// installs the pair as its stream-event sink and the receiver's delivery
// listener.
func (n *Net) Wrap(tc *tcp.Conn, rx *tcp.Receiver, cfg PairConfig) (client, server *Conn) {
	pr := &pair{n: n, tc: tc, rx: rx, cfg: cfg, finAt: -1}
	tc.SetStreamEvents(pr)
	rx.SetDeliveryListener(func() { n.fire(pr.srvRead, nil) })
	return &Conn{p: pr}, &Conn{p: pr, server: true}
}

// StreamWritable implements tcp.StreamEvents: room reopened for the client's
// blocked writer.
func (pr *pair) StreamWritable() { pr.n.fire(pr.cliWrite, nil) }

// StreamDrained implements tcp.StreamEvents. Drain completion rides the ACK
// stream; the FIN is finAt.
func (pr *pair) StreamDrained() {}

// StreamFailed implements tcp.StreamEvents: every blocked operation on the
// pair fails with the transport's error.
func (pr *pair) StreamFailed(err error) {
	pr.upErr = err
	pr.n.fire(pr.cliWrite, err)
	pr.n.fire(pr.cliRead, err)
	pr.n.fire(pr.srvRead, err)
}

// Read blocks in virtual time until bytes are readable, EOF (peer
// half-closed and everything consumed), a transport error, or Shutdown.
func (c *Conn) Read(b []byte) (int, error) {
	p := c.p
	n := p.n
	for {
		if n.closed {
			return 0, ErrClosed
		}
		if c.server {
			if p.srvClosed {
				return 0, net.ErrClosed
			}
			if avail := int64(p.rx.GoodBytes()) - p.srvConsumed; avail > 0 {
				m := int64(len(b))
				if m > avail {
					m = avail
				}
				p.srvConsumed += m
				return int(m), nil
			}
			if p.finAt >= 0 && p.srvConsumed >= p.finAt {
				return 0, io.EOF
			}
			if p.upErr != nil {
				return 0, p.upErr
			}
			p.srvRead = n.running.arm()
			err := n.running.park()
			p.srvRead = nil
			if err != nil {
				return 0, err
			}
			continue
		}
		if p.cliClosed {
			return 0, net.ErrClosed
		}
		if p.respAvail > 0 {
			m := int64(len(b))
			if m > p.respAvail {
				m = p.respAvail
			}
			p.respAvail -= m
			return int(m), nil
		}
		if p.srvWClosed && p.respPending() == 0 {
			return 0, io.EOF
		}
		if p.upErr != nil {
			return 0, p.upErr
		}
		p.cliRead = n.running.arm()
		err := n.running.park()
		p.cliRead = nil
		if err != nil {
			return 0, err
		}
	}
}

// Write on the client side pushes bytes into the simulated uplink stack
// and blocks (in virtual time) on send-buffer backpressure; on the server
// side it schedules the response onto the modelled return stream and
// never blocks.
func (c *Conn) Write(b []byte) (int, error) {
	p := c.p
	n := p.n
	if c.server {
		if n.closed {
			return 0, ErrClosed
		}
		if p.srvClosed || p.srvWClosed {
			return 0, net.ErrClosed
		}
		size := int64(len(b))
		if size == 0 {
			return 0, nil
		}
		now := n.eng.Now()
		start := p.respBusyUntil
		if start < now {
			start = now
		}
		var tx time.Duration
		if p.cfg.DownRate > 0 {
			tx = p.cfg.DownRate.TimeToSend(units.DataSize(size))
		}
		p.respBusyUntil = start + tx
		if p.respHead > 0 && len(p.respSizes) == cap(p.respSizes) {
			m := copy(p.respSizes, p.respSizes[p.respHead:])
			p.respSizes, p.respHead = p.respSizes[:m], 0
		}
		p.respSizes = append(p.respSizes, size)
		n.eng.SchedulePAt(start+tx+p.cfg.DownDelay, respArrive, p)
		return len(b), nil
	}
	total := 0
	for total < len(b) {
		if n.closed {
			return total, ErrClosed
		}
		if p.cliClosed {
			return total, net.ErrClosed
		}
		if p.upErr != nil {
			return total, p.upErr
		}
		nn, err := p.tc.StreamWrite(int64(len(b) - total))
		if err != nil {
			return total, err
		}
		total += int(nn)
		if total == len(b) {
			break
		}
		if nn > 0 {
			continue
		}
		p.cliWrite = n.running.arm()
		err = n.running.park()
		p.cliWrite = nil
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// respPending counts responses still in flight on the return stream.
func (pr *pair) respPending() int { return len(pr.respSizes) - pr.respHead }

// respArrive is the shared callback for one response's arrival: the
// oldest in-flight size becomes readable.
func respArrive(arg any) {
	p := arg.(*pair)
	size := p.respSizes[p.respHead]
	p.respHead++
	if p.respHead == len(p.respSizes) {
		p.respSizes, p.respHead = p.respSizes[:0], 0
	}
	p.respAvail += size
	p.n.fire(p.cliRead, nil)
}

// Close half-closes both directions, begins the transport's graceful
// teardown (client side), and unblocks any parked operations on this
// endpoint with net.ErrClosed. Idempotent and safe from any proc,
// concurrently with reads and writes.
func (c *Conn) Close() error {
	p := c.p
	n := p.n
	if c.server {
		if p.srvClosed {
			return nil
		}
		p.srvClosed = true
		if !p.srvWClosed {
			p.srvWClosed = true
			if p.respPending() == 0 {
				n.fire(p.cliRead, nil)
			}
		}
		n.fire(p.srvRead, net.ErrClosed)
		return nil
	}
	if p.cliClosed {
		return nil
	}
	p.cliClosed = true
	if p.finAt < 0 {
		p.finAt = p.tc.CloseStream()
		if p.srvConsumed >= p.finAt {
			n.fire(p.srvRead, nil)
		}
	}
	p.tc.Close()
	n.fire(p.cliRead, net.ErrClosed)
	n.fire(p.cliWrite, net.ErrClosed)
	return nil
}
