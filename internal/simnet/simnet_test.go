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

// newTestNet wires a Net over a rate-limited wired path, ready for Dial.
func newTestNet(t *testing.T, tcfg tcp.Config, tc netem.TC) (*Net, *sim.Engine) {
	t.Helper()
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 5e9)
	path, err := netem.EthernetLAN(eng, tc)
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	demux := tcp.NewDemux()
	path.SetReceiver(demux.Handle)
	n := New(eng)
	n.SetStack(&Stack{
		CPU:   cpu,
		Path:  path,
		TCP:   tcfg,
		CC:    func() cc.CongestionControl { return cubic.New() },
		Demux: demux,
		Pair:  PairConfig{DownDelay: path.MinRTT() / 2},
	})
	return n, eng
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

// TestDialEchoHalfClose covers the core request lifecycle: dial, upload
// with CloseWrite, server reads to EOF, responds, half-closes; the client
// reads the full response then EOF.
func TestDialEchoHalfClose(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	const upload = 300 * 1024
	const resp = 2048
	var srvGot, cliGot int
	var srvErr, cliErr error
	n.Go(0, func(p *Proc) {
		c, err := n.Listen().Accept()
		if err != nil {
			srvErr = err
			return
		}
		srvGot, srvErr = recvUntilEOF(c)
		if _, err := c.Write(make([]byte, resp)); err != nil {
			srvErr = err
			return
		}
		c.(*Conn).CloseWrite()
	})
	n.Go(0, func(p *Proc) {
		c, err := n.Dial()
		if err != nil {
			cliErr = err
			return
		}
		if _, err := sendAll(c, upload); err != nil {
			cliErr = err
			return
		}
		c.(*Conn).CloseWrite()
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

// TestReadDeadline pins net.Conn deadline semantics in virtual time: a
// read with no data errors with os.ErrDeadlineExceeded exactly at the
// deadline instant.
func TestReadDeadline(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	var gotErr error
	var at time.Duration
	n.Go(0, func(p *Proc) {
		c, err := n.Dial()
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
	if want := n.stack.Path.MinRTT() + 50*time.Millisecond; at != want {
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
		c, err := n.Dial()
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
		c, err = n.Dial()
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

// TestShutdownUnblocks parks procs in Accept, Read and Sleep with no
// traffic at all; Shutdown must unwind every one of them with ErrClosed.
func TestShutdownUnblocks(t *testing.T) {
	n, eng := newTestNet(t, tcp.Config{}, fastTC())
	errs := make([]error, 3)
	n.Go(0, func(p *Proc) {
		// The first Accept pairs with the dialing proc below; the second
		// has nothing to accept and parks until Shutdown.
		if _, err := n.Listen().Accept(); err != nil {
			errs[0] = err
			return
		}
		_, errs[0] = n.Listen().Accept()
	})
	n.Go(0, func(p *Proc) {
		c, err := n.Dial()
		if err != nil {
			errs[1] = err
			return
		}
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
	if !n.Closed() {
		t.Errorf("Closed() = false after Shutdown")
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
			land := writeAt + n.stack.Pair.DownDelay // response arrival = read deadline
			var (
				srvErr, readErr, napErr, lateErr error
				readN, lateN                     int
				readAt, napAt                    time.Duration
			)
			n.Go(0, func(p *Proc) {
				c, err := n.Listen().Accept()
				if err != nil {
					srvErr = err
					return
				}
				if srvErr = n.Sleep(p, writeAt-eng.Now()); srvErr != nil {
					return
				}
				_, srvErr = c.Write(make([]byte, resp))
			})
			n.Go(0, func(p *Proc) {
				c, err := n.Dial()
				if err != nil {
					readErr = err
					return
				}
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
		if _, err := n.Dial(); err != nil {
			t.Errorf("Dial: %v", err)
		}
	})
	n.Go(time.Second, func(p *Proc) {
		c, err := n.Listen().Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		srv = c.(*Conn)
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
