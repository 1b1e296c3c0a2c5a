package simnet

import (
	"errors"
	"io"
	"net"
	"os"
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
func sendAll(c net.Conn, total int) (int, error) {
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

func recvN(c net.Conn, total int) (int, error) {
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

func recvUntilEOF(c net.Conn) (int, error) {
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

// TestReadDeadline pins net.Conn deadline semantics in virtual time: a
// read with no data errors with os.ErrDeadlineExceeded exactly at the
// deadline instant.
func TestReadDeadline(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	var gotErr error
	var at time.Duration
	n.Go(0, func(p *Proc) {
		c, _, err := n.dial(p)
		if err != nil {
			gotErr = err
			return
		}
		c.SetReadDeadline(n.Now().Add(50 * time.Millisecond))
		_, gotErr = c.Read(make([]byte, 1))
		at = eng.Now()
	})
	eng.Run(time.Second)
	n.Shutdown()
	if !errors.Is(gotErr, os.ErrDeadlineExceeded) {
		t.Fatalf("read err = %v, want ErrDeadlineExceeded", gotErr)
	}
	// The deadline was set after Dial's simulated handshake.
	if want := n.path.MinRTT() + 50*time.Millisecond; at != want {
		t.Errorf("deadline fired at %v, want %v", at, want)
	}
}

// TestWriteDeadline drives the send buffer into backpressure over a slow
// path and checks the blocked write times out with partial progress.
func TestWriteDeadline(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{SndBuf: 32 * units.KB},
		netem.TC{Rate: units.Mbps, Delay: 5 * time.Millisecond})
	var sent int
	var gotErr error
	n.Go(0, func(p *Proc) {
		c, _, err := n.dial(p)
		if err != nil {
			gotErr = err
			return
		}
		c.SetWriteDeadline(n.Now().Add(30 * time.Millisecond))
		sent, gotErr = sendAll(c, 4*1024*1024)
	})
	eng.Run(time.Second)
	n.Shutdown()
	if !errors.Is(gotErr, os.ErrDeadlineExceeded) {
		t.Fatalf("write err = %v, want ErrDeadlineExceeded", gotErr)
	}
	if sent <= 0 || sent >= 4*1024*1024 {
		t.Errorf("sent = %d, want partial progress", sent)
	}
}

// TestConcurrentClose has one proc parked in Read while two others race
// Close on the same endpoint: the reader unblocks with net.ErrClosed and
// the duplicate Close is a no-op.
func TestConcurrentClose(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	var readErr error
	var closeErrs [2]error
	var c net.Conn
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
// ErrClosed.
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
	})
	n.Go(0, func(p *Proc) {
		errs[2] = n.Sleep(p, time.Hour)
	})
	eng.Run(100 * time.Millisecond)
	n.Shutdown()
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("proc %d err = %v, want ErrClosed", i, err)
		}
	}
	if !n.closed {
		t.Errorf("network not closed after Shutdown")
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

// TestWaiterReuseSameInstant guards the per-proc waiter's reuse. A response
// and the read deadline land on the same virtual instant, in either order;
// whichever loses must not reach the proc's next blocking operation, which
// re-arms the same waiter inside the winner's event: the follow-up Sleep has
// to last its full duration and return nil.
func TestWaiterReuseSameInstant(t *testing.T) {
	const (
		writeAt = 50 * time.Millisecond
		nap     = 10 * time.Millisecond
		resp    = 512
	)
	for _, dataFirst := range []bool{false, true} {
		name := "deadline first"
		if dataFirst {
			name = "data first"
		}
		t.Run(name, func(t *testing.T) {
			n, eng := newTestNet(t, tcp.Config{}, fastTC())
			land := writeAt + n.pair.DownDelay // response arrival = read deadline
			var (
				srvErr, readErr, napErr, lateErr error
				readN, lateN                     int
				readAt, napAt                    time.Duration
			)
			n.Go(0, func(p *Proc) {
				c, srv, err := n.dial(p)
				if err != nil {
					readErr = err
					return
				}
				n.Go(0, func(p *Proc) {
					if srvErr = n.Sleep(p, writeAt-eng.Now()); srvErr != nil {
						return
					}
					_, srvErr = srv.Write(make([]byte, resp))
				})
				if dataFirst {
					// Arm the deadline after the server has scheduled the
					// response, so the delivery holds the lower sequence.
					if readErr = n.Sleep(p, writeAt+time.Millisecond-eng.Now()); readErr != nil {
						return
					}
				}
				buf := make([]byte, resp)
				c.SetReadDeadline(epoch.Add(land))
				readN, readErr = c.Read(buf)
				readAt = eng.Now()
				napErr = n.Sleep(p, nap)
				napAt = eng.Now()
				if !dataFirst {
					c.SetReadDeadline(time.Time{})
					lateN, lateErr = c.Read(buf)
				}
			})
			eng.Run(time.Second)
			n.Shutdown()
			if srvErr != nil {
				t.Fatalf("server: %v", srvErr)
			}
			if readAt != land {
				t.Fatalf("read returned at %v, want the shared instant %v", readAt, land)
			}
			if dataFirst {
				if readErr != nil || readN != resp {
					t.Errorf("read = %d, %v; want %d, nil (data won the tie)", readN, readErr, resp)
				}
			} else {
				if !errors.Is(readErr, os.ErrDeadlineExceeded) {
					t.Errorf("read err = %v, want ErrDeadlineExceeded (deadline won the tie)", readErr)
				}
				if lateErr != nil || lateN != resp {
					t.Errorf("read after the nap = %d, %v; want %d, nil", lateN, lateErr, resp)
				}
			}
			if napErr != nil || napAt != land+nap {
				t.Errorf("follow-up Sleep woke at %v with %v, want %v with nil: the tie's loser reached the reused waiter",
					napAt, napErr, land+nap)
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
