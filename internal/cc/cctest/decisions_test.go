package cctest_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/cc/cctest"
	"mobbr/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBBRDecisionsMatchGolden pins every per-ACK decision both BBRs make:
// after each ACK and event the cwnd, the pacing rate and the state-machine
// label the mode listener last reported. Each module runs through drive and
// through script, so the golden covers slow start, recovery, spurious RTOs,
// app-limited samples, 2 % and 30 % loss rounds, an ECN-heavy round and
// a PROBE_RTT excursion on min-RTT expiry. A change to either module's
// arithmetic or state machine shows up as the first diverging line.
func TestBBRDecisionsMatchGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range []struct {
		name    string
		factory cc.Factory
	}{
		{"bbr", bbr.Factory()},
		{"bbr2", bbrv2.Factory()},
	} {
		for _, run := range []struct {
			name string
			run  func(cc.CongestionControl, *cctest.FakeConn)
		}{{"drive", drive}, {"script", script}} {
			f := cctest.NewFakeConn()
			r := &recorder{CongestionControl: tc.factory(), out: &got, label: "STARTUP"}
			r.Init(f)
			r.CongestionControl.(cc.ModeReporter).SetModeListener(func(_, new string) {
				r.label = new
				r.seen += " " + new
			})
			fmt.Fprintf(&got, "== %s %s\n", tc.name, run.name)
			run.run(r, f)
			for _, mode := range []string{"PROBE_BW", "PROBE_RTT"} {
				if !strings.Contains(r.seen, mode) {
					t.Errorf("%s %s never reached %s (labels %s)", tc.name, run.name, mode, r.seen)
				}
			}
		}
	}
	path := filepath.Join("testdata", "bbr_decisions.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("decisions diverge from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("decisions: got %d lines, golden has %d", len(gl), len(wl))
	}
}

// recorder wraps a module and writes one line per ACK and per event: the
// input's kind, then cwnd, pacing rate in bit/s, and the current label.
type recorder struct {
	cc.CongestionControl
	out   *bytes.Buffer
	label string
	seen  string // every label the listener reported, space-separated
}

func (r *recorder) OnAck(conn cc.Conn, rs *cc.RateSample) {
	r.CongestionControl.OnAck(conn, rs)
	r.log(conn, "ack")
}

func (r *recorder) OnEvent(conn cc.Conn, ev cc.Event) {
	r.CongestionControl.OnEvent(conn, ev)
	r.log(conn, fmt.Sprintf("event%d", ev))
}

func (r *recorder) log(conn cc.Conn, kind string) {
	fmt.Fprintf(r.out, "%s %d %d %s\n", kind, conn.Cwnd(), int64(conn.PacingRate()), r.label)
}

// script feeds a started flow the inputs drive does not: delivery rates
// that rise and fall, app-limited samples below and above the estimate,
// seconds of clean ACKs, rounds at 2 % and 30 % loss, a round with every packet CE-marked, and a
// min-RTT expiry with inflight drained low enough for PROBE_RTT to finish.
func script(m cc.CongestionControl, f *cctest.FakeConn) {
	ack := func(n int64, rtt time.Duration, rate units.Bandwidth, losses, ce int64, appLimited bool) {
		f.Inflight = min(f.CwndPkts*3/4, 40) // about one BDP at the script's rates
		rs := f.Ack(n, rtt, rate)
		rs.Losses, rs.CECount, rs.IsAppLimited = losses, ce, appLimited
		m.OnAck(f, rs)
	}
	for i := 0; i < 400; i++ {
		ack(2, 10*time.Millisecond, units.Bandwidth(20+i/10)*units.Mbps, 0, 0, false)
	}
	for i := 0; i < 150; i++ {
		rate := 5 * units.Mbps
		if i%30 == 29 {
			rate = 90 * units.Mbps
		}
		ack(2, 10*time.Millisecond, rate, 0, 0, true)
	}
	// Three seconds of clean ACKs: long enough for BBRv2 to leave CRUISE
	// and probe up.
	for i := 0; i < 1000; i++ {
		f.Time += 3 * time.Millisecond
		ack(2, 10*time.Millisecond, 40*units.Mbps, 0, 0, false)
	}
	// 1 packet lost per 49 delivered: just over the 2 % threshold.
	for i := 0; i < 490; i++ {
		var lost int64
		if i%49 == 48 {
			lost = 1
		}
		ack(2, 12*time.Millisecond, 40*units.Mbps, lost, 0, false)
	}
	for i := 0; i < 200; i++ {
		ack(2, 11*time.Millisecond, 40*units.Mbps, 0, 0, false)
	}
	// 3 lost per 7 delivered: 30 %.
	for i := 0; i < 120; i++ {
		ack(7, 15*time.Millisecond, 30*units.Mbps, 3, 0, false)
	}
	f.CAState = cc.StateRecovery
	m.OnEvent(f, cc.EventEnterRecovery)
	for i := 0; i < 60; i++ {
		ack(2, 11*time.Millisecond, 40*units.Mbps, 0, 0, false)
	}
	f.CAState = cc.StateOpen
	m.OnEvent(f, cc.EventExitRecovery)
	m.OnEvent(f, cc.EventECE)
	for i := 0; i < 150; i++ {
		ack(2, 10*time.Millisecond, 40*units.Mbps, 0, 2, false)
	}
	for i := 0; i < 600; i++ {
		ack(2, 10*time.Millisecond, units.Bandwidth(30+i%20)*units.Mbps, 0, 0, false)
	}
	// The min-RTT estimate expires; inflight drains to the PROBE_RTT floor,
	// dwells, and the flow resumes.
	f.Time += 11 * time.Second
	for i := 0; i < 200; i++ {
		f.Time += 2 * time.Millisecond
		f.Inflight = 2
		rs := f.Ack(1, 13*time.Millisecond, 40*units.Mbps)
		m.OnAck(f, rs)
	}
	for i := 0; i < 300; i++ {
		ack(2, 10*time.Millisecond, 40*units.Mbps, 0, 0, false)
	}
}
