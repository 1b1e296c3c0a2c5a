// Package simnet exposes the deterministic simulator behind a socket-shaped
// API: Wrap returns connection endpoints whose blocking Read, Write and
// Close run entirely in virtual time, so Go-written workloads
// (request/response clients, streaming uploaders) drive the simulated TCP
// stack as ordinary blocking code.
//
// Determinism contract: application code runs on real goroutines, but a
// baton handoff guarantees exactly one logical thread is ever runnable —
// either the engine or one proc. A proc runs only between an explicit
// resume (engine context) and its next park (blocking op), and every wake
// is ordered by the engine's event sequence. Runs are therefore
// byte-deterministic at any -j and race-detector clean: all shared state
// is accessed under the baton, with happens-before established by the
// handoff channels.
package simnet

import (
	"errors"
	"time"

	"mobbr/internal/sim"
)

// ErrClosed is returned by blocking operations after Shutdown.
var ErrClosed = errors.New("simnet: network closed")

// Net owns the procs of one simulated network and the baton that
// serializes them against the engine.
type Net struct {
	eng   *sim.Engine
	procs []*Proc
	// parked is the baton's return channel: a proc sends on it when it
	// parks or exits, unblocking the resume that woke it.
	parked  chan struct{}
	running *Proc // proc currently holding the baton (nil in engine context)
	closed  bool
}

// New builds an empty network on the engine.
func New(eng *sim.Engine) *Net {
	return &Net{eng: eng, parked: make(chan struct{})}
}

// Proc is one logical application thread. It runs on its own goroutine
// but only while it holds the baton; all its blocking operations park it
// back into the engine's event order.
type Proc struct {
	n      *Net
	wake   chan struct{}
	exited bool
	parked bool // inside park: w is the live park reason

	// w is the proc's one waiter, re-armed by every blocking operation: a
	// proc blocks in at most one operation at a time, and the operation
	// unregisters w (and Sleep stops its timer) before the proc can block
	// again, so nothing stale can reach the next use. The callbacks are
	// cached for the same reason the transport caches its timer callbacks —
	// a blocking op then allocates nothing.
	w        waiter
	resumeFn func() // resume this proc (engine context)
	sleepFn  func() // fire w with nil
}

// waiter is one parked blocking operation. fired guards against double
// wakes: a wake fired from proc context is deferred one zero-delay event,
// and a transport failure can fire the same waiter before that event runs.
type waiter struct {
	p     *Proc
	err   error
	fired bool
}

// Go spawns a proc that first runs at start of virtual time. fn must
// bound its work with the Net's blocking operations (Read/Write/Sleep);
// returning ends the proc.
func (n *Net) Go(start time.Duration, fn func(p *Proc)) *Proc {
	p := &Proc{n: n, wake: make(chan struct{})}
	p.w.p = p
	p.resumeFn = func() { n.resume(p) }
	p.sleepFn = func() { n.fire(&p.w, nil) }
	n.procs = append(n.procs, p)
	go func() {
		<-p.wake
		fn(p)
		p.exited = true
		n.parked <- struct{}{}
	}()
	n.eng.Schedule(start, p.resumeFn)
	return p
}

// resume hands the baton to p and blocks until p parks or exits. It runs
// in engine context (an engine event, or the Shutdown loop after the
// engine has stopped). p has not exited: it is a proc's first event, the
// proc parked on a fired waiter, or Shutdown's next live proc.
func (n *Net) resume(p *Proc) {
	n.running = p
	p.wake <- struct{}{}
	<-n.parked
	n.running = nil
}

// arm readies the proc's waiter for its next blocking operation.
func (p *Proc) arm() *waiter {
	w := &p.w
	w.err, w.fired = nil, false
	return w
}

// park blocks the calling proc until its waiter is fired, handing the
// baton back to whoever resumed it. Returns the waiter's error.
func (p *Proc) park() error {
	p.parked = true
	p.n.parked <- struct{}{}
	<-p.wake
	p.parked = false
	return p.w.err
}

// fire wakes w's proc with err. From engine context the proc runs
// immediately (nested inside the current event); from proc context —
// one proc waking another — the wake is deferred one zero-delay event so
// the baton discipline holds. Double fires and nil waiters are no-ops.
func (n *Net) fire(w *waiter, err error) {
	if w == nil || w.fired {
		return
	}
	w.fired = true
	w.err = err
	if n.running != nil {
		n.eng.Schedule(0, w.p.resumeFn)
	} else {
		n.resume(w.p)
	}
}

// Sleep parks p for d of virtual time. It returns ErrClosed when woken by
// Shutdown instead.
func (n *Net) Sleep(p *Proc, d time.Duration) error {
	if n.closed {
		return ErrClosed
	}
	p.arm()
	t := n.eng.Schedule(d, p.sleepFn)
	err := p.park()
	t.Stop()
	return err
}

// Shutdown closes the network after the engine's run horizon: every
// parked (or never-started) proc is woken with ErrClosed, in spawn order,
// until all have exited. Blocking operations check the closed flag first
// and fail fast, so a woken proc cannot park again: each wake ends with
// its proc exited. Deterministic and idempotent.
func (n *Net) Shutdown() {
	n.closed = true
	for {
		var live *Proc
		for _, p := range n.procs {
			if !p.exited {
				live = p
				break
			}
		}
		if live == nil {
			return
		}
		if w := &live.w; live.parked && !w.fired {
			w.fired = true
			w.err = ErrClosed
		}
		n.resume(live)
	}
}
