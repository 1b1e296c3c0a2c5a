package simnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/cubic"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/units"
)

// testNet is a Net over a rate-limited wired path, with what dial needs to
// build connections on it the way the apps harness does: tcp.Conn in
// stream mode, its receiver on the demux, and Wrap.
type testNet struct {
	*Net
	eng   *sim.Engine
	cpu   *cpumodel.CPU
	path  *netem.Path
	demux *tcp.Demux
	tcfg  tcp.Config
	pair  PairConfig
	next  int
}

func newTestNet(t *testing.T, tcfg tcp.Config, tc netem.TC) (*testNet, *sim.Engine) {
	t.Helper()
	eng := sim.New(1)
	path, err := netem.EthernetLAN(eng, tc)
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	tn := &testNet{
		Net: New(eng), eng: eng, path: path, tcfg: tcfg,
		cpu:   cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9),
		demux: tcp.NewDemux(),
		pair:  PairConfig{DownDelay: path.MinRTT() / 2},
	}
	path.SetReceiver(tn.demux.Handle)
	return tn, eng
}

// dial builds and starts a fresh connection, waits one no-load RTT for the
// (abstracted) handshake and returns both endpoints. Proc context only.
func (tn *testNet) dial(p *Proc) (client, server *Conn, err error) {
	tc := tcp.NewConn(tn.next, tn.eng, tn.cpu, tn.path, tn.tcfg, func() cc.CongestionControl { return cubic.New() })
	tn.next++
	tc.SetStream()
	rx := tcp.NewReceiver(tn.eng, tn.path, tc)
	tn.demux.Add(rx)
	client, server = tn.Wrap(tc, rx, tn.pair)
	tc.Start()
	if err := tn.Sleep(p, tn.path.MinRTT()); err != nil {
		return nil, nil, err
	}
	return client, server, nil
}

func fastTC() netem.TC {
	return netem.TC{Rate: 100 * units.Mbps, Delay: 2 * time.Millisecond}
}

// sendAll / recvN drive a conn from inside a proc, returning progress.
func sendAll(c *Conn, total int) (int, error) {
	buf := make([]byte, 32*1024)
	sent := 0
	for sent < total {
		b := buf
		if rem := total - sent; rem < len(b) {
			b = b[:rem]
		}
		m, err := c.Write(b)
		sent += m
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

func recvN(c *Conn, total int) (int, error) {
	buf := make([]byte, 32*1024)
	got := 0
	for got < total {
		m, err := c.Read(buf[:min(len(buf), total-got)])
		got += m
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

func recvUntilEOF(c *Conn) (int, error) {
	buf := make([]byte, 32*1024)
	got := 0
	for {
		m, err := c.Read(buf)
		got += m
		if err != nil {
			if err == io.EOF {
				return got, nil
			}
			return got, err
		}
	}
}

// TestDialEchoHalfClose covers the core request lifecycle: dial, upload,
// the server reads the request, responds and closes, which half-closes the
// return stream: the client reads the full response then EOF.
func TestDialEchoHalfClose(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	const upload = 300 * 1024
	const resp = 2048
	var srvGot, cliGot int
	var srvErr, cliErr error
	n.Go(0, func(p *Proc) {
		c, srv, err := n.dial(p)
		if err != nil {
			cliErr = err
			return
		}
		n.Go(0, func(p *Proc) {
			if srvGot, srvErr = recvN(srv, upload); srvErr != nil {
				return
			}
			if _, srvErr = srv.Write(make([]byte, resp)); srvErr != nil {
				return
			}
			srv.Close()
		})
		if _, err := sendAll(c, upload); err != nil {
			cliErr = err
			return
		}
		cliGot, cliErr = recvUntilEOF(c)
		c.Close()
	})
	eng.Run(3 * time.Second)
	n.Shutdown()
	if srvErr != nil || cliErr != nil {
		t.Fatalf("server err=%v client err=%v", srvErr, cliErr)
	}
	if srvGot != upload {
		t.Errorf("server read %d bytes, want %d", srvGot, upload)
	}
	if cliGot != resp {
		t.Errorf("client read %d bytes, want %d", cliGot, resp)
	}
}

// TestClientCloseEndsUpload covers the other direction of the FIN: the
// client uploads and closes, and the server reads every uploaded byte, then
// EOF once it has consumed up to the FIN.
func TestClientCloseEndsUpload(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	const upload = 300 * 1024
	srvGot := -1
	var srvErr, cliErr error
	n.Go(0, func(p *Proc) {
		c, srv, err := n.dial(p)
		if err != nil {
			cliErr = err
			return
		}
		n.Go(0, func(p *Proc) {
			srvGot, srvErr = recvUntilEOF(srv)
		})
		if _, cliErr = sendAll(c, upload); cliErr != nil {
			return
		}
		cliErr = c.Close()
	})
	eng.Run(3 * time.Second)
	n.Shutdown()
	if srvErr != nil || cliErr != nil {
		t.Fatalf("server err=%v client err=%v", srvErr, cliErr)
	}
	if srvGot != upload {
		t.Errorf("server read %d bytes before EOF, want %d", srvGot, upload)
	}
}

// TestConcurrentClose has one proc parked in Read while two others race
// Close on the same endpoint: the reader unblocks with net.ErrClosed and
// the duplicate Close is a no-op.
func TestConcurrentClose(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	var readErr error
	var closeErrs [2]error
	var c *Conn
	n.Go(0, func(p *Proc) {
		var err error
		c, _, err = n.dial(p)
		if err != nil {
			readErr = err
			return
		}
		_, readErr = c.Read(make([]byte, 1))
	})
	for i := 0; i < 2; i++ {
		i := i
		n.Go(20*time.Millisecond, func(p *Proc) {
			closeErrs[i] = c.Close()
		})
	}
	eng.Run(time.Second)
	n.Shutdown()
	if !errors.Is(readErr, net.ErrClosed) {
		t.Fatalf("read err = %v, want net.ErrClosed", readErr)
	}
	if closeErrs[0] != nil || closeErrs[1] != nil {
		t.Fatalf("close errs = %v, %v (Close must be idempotent)", closeErrs[0], closeErrs[1])
	}
}

// TestShutdownUnblocks parks procs in a client Read, a server Read and a
// Sleep with no traffic at all; Shutdown must unwind every one of them with
// ErrClosed, and every operation after that fails with ErrClosed too.
func TestShutdownUnblocks(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	errs := make([]error, 3)
	n.Go(0, func(p *Proc) {
		c, srv, err := n.dial(p)
		if err != nil {
			errs[1] = err
			return
		}
		n.Go(0, func(p *Proc) {
			_, errs[0] = srv.Read(make([]byte, 1))
		})
		_, errs[1] = c.Read(make([]byte, 1))
		// Every later operation fails fast instead of parking again.
		_, e1 := c.Read(make([]byte, 1))
		_, e2 := c.Write(make([]byte, 1))
		_, e3 := srv.Write(make([]byte, 1))
		errs = append(errs, e1, e2, e3, n.Sleep(p, time.Millisecond))
	})
	n.Go(0, func(p *Proc) {
		errs[2] = n.Sleep(p, time.Hour)
	})
	eng.Run(100 * time.Millisecond)
	n.Shutdown()
	if len(errs) != 7 {
		t.Fatalf("%d errors recorded, want 7", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("proc %d err = %v, want ErrClosed", i, err)
		}
	}
	if !n.closed {
		t.Errorf("network not closed after Shutdown")
	}
}

// TestClosedEndpointFailsFast: after Close, an endpoint's operations fail
// with net.ErrClosed without blocking, a second Close is a no-op, and an
// empty server write writes nothing.
func TestClosedEndpointFailsFast(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	var errs []error
	n.Go(0, func(p *Proc) {
		c, srv, err := n.dial(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 1)
		if m, err := srv.Write(nil); m != 0 || err != nil {
			t.Errorf("empty server write = %d, %v", m, err)
		}
		errs = append(errs, srv.Close(), srv.Close(), c.Close(), c.Close())
		_, e1 := srv.Read(buf)
		_, e2 := srv.Write(buf)
		_, e3 := c.Read(buf)
		_, e4 := c.Write(buf)
		errs = append(errs, e1, e2, e3, e4)
	})
	eng.Run(time.Second)
	n.Shutdown()
	want := []error{nil, nil, nil, nil, net.ErrClosed, net.ErrClosed, net.ErrClosed, net.ErrClosed}
	if len(errs) != len(want) {
		t.Fatalf("errors %v, want %v", errs, want)
	}
	for i := range want {
		if errs[i] != want[i] {
			t.Errorf("errors %v, want %v", errs, want)
			break
		}
	}
}

// TestFailedStreamFailsFast: once the transport declares the connection
// dead, both endpoints' reads and the client's writes return its error
// without blocking.
func TestFailedStreamFailsFast(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	errDead := errors.New("transport failed")
	var errs []error
	n.Go(0, func(p *Proc) {
		c, srv, err := n.dial(p)
		if err != nil {
			t.Error(err)
			return
		}
		eng.Schedule(0, func() { c.p.StreamFailed(errDead) })
		if err := n.Sleep(p, time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 1)
		_, e1 := c.Read(buf)
		_, e2 := srv.Read(buf)
		_, e3 := c.Write(buf)
		errs = append(errs, e1, e2, e3)
	})
	eng.Run(time.Second)
	n.Shutdown()
	if len(errs) != 3 || errs[0] != errDead || errs[1] != errDead || errs[2] != errDead {
		t.Errorf("errors %v, want the transport's error three times", errs)
	}
}

// TestPipelinedResponsesArriveInOrder keeps responses queued on a slow
// return stream while earlier ones arrive, so the queue compacts in place;
// the client still reads every byte, then EOF.
func TestPipelinedResponsesArriveInOrder(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	n.pair.DownRate = 8 * units.Mbps // one byte per microsecond
	got := -1
	var cliErr error
	n.Go(0, func(p *Proc) {
		c, srv, err := n.dial(p)
		if err != nil {
			cliErr = err
			return
		}
		n.Go(0, func(p *Proc) {
			srv.Write(make([]byte, 100))
			srv.Write(make([]byte, 200))
			// The first response has arrived and the second has not.
			n.Sleep(p, n.pair.DownDelay+150*time.Microsecond)
			if pending := srv.p.respPending(); pending != 1 || srv.p.respHead != 1 {
				t.Errorf("%d responses in flight behind head %d, want 1 behind 1", pending, srv.p.respHead)
			}
			srv.Write(make([]byte, 300))
			srv.Close()
		})
		got, cliErr = recvUntilEOF(c)
	})
	eng.Run(time.Second)
	n.Shutdown()
	if cliErr != nil || got != 600 {
		t.Errorf("client read %d bytes, err %v; want 600, nil", got, cliErr)
	}
}

// TestSleepOrder pins the baton's determinism: procs sleeping to the same
// instant wake in schedule order, serialized one at a time.
func TestSleepOrder(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		n.Go(0, func(p *Proc) {
			if n.Sleep(p, 10*time.Millisecond) == nil {
				order = append(order, i)
			}
		})
	}
	eng.Run(50 * time.Millisecond)
	n.Shutdown()
	if len(order) != 4 {
		t.Fatalf("woke %d procs, want 4", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("wake order %v, want spawn order", order)
		}
	}
}

// TestWaiterReuseSameInstant guards the per-proc waiter's reuse. A wake
// fired from proc context is deferred one zero-delay event, so a transport
// failure at the same instant can fire the same waiter again before the
// proc runs. Here the server's Close wakes the client's parked Read with
// EOF (the data wake) and the transport fails at that instant, in either
// order. Whichever loses must not reach the proc's next blocking
// operation, which re-arms the same waiter: the follow-up Sleep has to
// last its full duration and return nil.
func TestWaiterReuseSameInstant(t *testing.T) {
	const (
		closeAt = 50 * time.Millisecond
		nap     = 10 * time.Millisecond
	)
	errDead := errors.New("transport failed")
	for _, dataFirst := range []bool{false, true} {
		name := "failure first"
		if dataFirst {
			name = "data first"
		}
		t.Run(name, func(t *testing.T) {
			n, eng := newTestNet(t, tcp.Config{}, fastTC())
			var (
				readErr, napErr error
				readAt, napAt   time.Duration
			)
			n.Go(0, func(p *Proc) {
				c, srv, err := n.dial(p)
				if err != nil {
					readErr = err
					return
				}
				fail := func() { c.p.StreamFailed(errDead) }
				if !dataFirst {
					// Queued now, so it runs at closeAt before the server.
					eng.Schedule(closeAt-eng.Now(), fail)
				}
				n.Go(0, func(p *Proc) {
					if n.Sleep(p, closeAt-eng.Now()) != nil {
						return
					}
					if dataFirst {
						// Queued behind nothing but ahead of the deferred
						// wake that Close schedules.
						eng.Schedule(0, fail)
					}
					srv.Close()
				})
				_, readErr = c.Read(make([]byte, 1))
				readAt = eng.Now()
				napErr = n.Sleep(p, nap)
				napAt = eng.Now()
			})
			eng.Run(time.Second)
			n.Shutdown()
			if readAt != closeAt {
				t.Fatalf("read returned at %v, want the shared instant %v", readAt, closeAt)
			}
			want := errDead
			if dataFirst {
				want = io.EOF
			}
			if readErr != want {
				t.Errorf("read err = %v, want %v", readErr, want)
			}
			if napErr != nil || napAt != closeAt+nap {
				t.Errorf("follow-up Sleep woke at %v with %v, want %v with nil: the tie's loser reached the reused waiter",
					napAt, napErr, closeAt+nap)
			}
		})
	}
}

// TestBlockingOpsDoNotAllocate pins the steady-state cost of parking: one
// reused waiter and cached callbacks per proc, so a Sleep allocates nothing.
// A server Write queues its response size on the pair and schedules a
// shared callback, so a warmed-up Write and the response's arrival allocate
// nothing either.
func TestBlockingOpsDoNotAllocate(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	var sleepAllocs, writeAllocs float64
	var srv *Conn
	const resp, runs = 512, 200
	n.Go(0, func(p *Proc) {
		n.Sleep(p, time.Millisecond) // grow the engine's event arena once
		sleepAllocs = testing.AllocsPerRun(runs, func() { n.Sleep(p, time.Millisecond) })
	})
	// The connection starts once the Sleep measurement is over, so the two
	// measurements never interleave.
	n.Go(time.Second, func(p *Proc) {
		var err error
		if _, srv, err = n.dial(p); err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := make([]byte, resp)
		// The sleep outlasts DownDelay, so each response arrives inside
		// the measured call.
		writeAllocs = testing.AllocsPerRun(runs, func() {
			srv.Write(buf)
			n.Sleep(p, 10*time.Millisecond)
		})
	})
	eng.Run(10 * time.Second)
	n.Shutdown()
	if sleepAllocs != 0 {
		t.Errorf("Sleep allocates %.1f objects per call, want 0", sleepAllocs)
	}
	if srv == nil {
		t.Fatal("server never accepted")
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	if got, want := srv.p.respAvail, int64((runs+1)*resp); got != want {
		t.Fatalf("client has %d response bytes readable, want %d", got, want)
	}
	if writeAllocs != 0 {
		t.Errorf("server Write plus its response's arrival allocates %.1f objects, want 0", writeAllocs)
	}
}
