// Package simnet runs goroutine-backed procs in virtual time: a proc's
// Sleep parks its goroutine and an engine event wakes it. Nothing in the
// program uses it any more — the application workloads (internal/apps) run
// as engine callbacks — and it stays only because the benchmark's
// simnet.sleep_handoff_ns layer metric times this handoff; it goes together
// with that metric.
//
// Determinism contract: a baton handoff guarantees exactly one logical
// thread is ever runnable — either the engine or one proc. A proc runs only
// between a resume (engine context) and its next park, and every wake is an
// engine event, so runs are byte-deterministic and race-detector clean: the
// handoff channels establish happens-before for all shared state.
package simnet

import (
	"errors"
	"time"

	"mobbr/internal/sim"
)

// ErrClosed is returned by Sleep after Shutdown.
var ErrClosed = errors.New("simnet: network closed")

// Net owns the procs of one simulated network and the baton that
// serializes them against the engine.
type Net struct {
	eng   *sim.Engine
	procs []*Proc
	// parked is the baton's return channel: a proc sends on it when it
	// parks or exits, unblocking the resume that woke it.
	parked chan struct{}
	closed bool
}

// New builds an empty network on the engine.
func New(eng *sim.Engine) *Net {
	return &Net{eng: eng, parked: make(chan struct{})}
}

// Proc is one logical application thread. It runs on its own goroutine
// but only while it holds the baton.
type Proc struct {
	wake   chan struct{}
	exited bool
	// err is the reason for the proc's latest wake: nil from its Sleep
	// timer, ErrClosed from Shutdown.
	err error
	// resumeFn is cached, as the transport caches its timer callbacks, so
	// a Sleep allocates nothing.
	resumeFn func()
}

// Go spawns a proc that first runs at start of virtual time. fn must
// bound its work with Sleep; returning ends the proc.
func (n *Net) Go(start time.Duration, fn func(p *Proc)) *Proc {
	p := &Proc{wake: make(chan struct{})}
	p.resumeFn = func() { n.resume(p) }
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
// in engine context: an engine event, or the Shutdown loop after the engine
// has stopped.
func (n *Net) resume(p *Proc) {
	p.wake <- struct{}{}
	<-n.parked
}

// Sleep parks p for d of virtual time. It returns ErrClosed when woken by
// Shutdown instead, and at once after Shutdown.
func (n *Net) Sleep(p *Proc, d time.Duration) error {
	if n.closed {
		return ErrClosed
	}
	p.err = nil
	t := n.eng.Schedule(d, p.resumeFn)
	n.parked <- struct{}{}
	<-p.wake
	t.Stop()
	return p.err
}

// Shutdown closes the network after the engine's run horizon: every live
// proc — parked in Sleep or never started — is woken with ErrClosed, in
// spawn order. Sleep fails fast once the network is closed, so each wake
// ends with its proc exited. Deterministic and idempotent.
func (n *Net) Shutdown() {
	n.closed = true
	for i := 0; i < len(n.procs); i++ { // a woken proc may Go another
		if p := n.procs[i]; !p.exited {
			p.err = ErrClosed
			n.resume(p)
		}
	}
}
