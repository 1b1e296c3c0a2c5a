// Package trace records per-connection time series from a running
// experiment — congestion window, pacing rate, smoothed RTT, inflight, and
// the BBR state-machine mode — for debugging, verification, and plotting.
// It is the simulation-side analogue of polling `ss -ti` during an iPerf
// run.
//
// The recorder is a thin compatibility wrapper over the telemetry bus:
// every observation is a telemetry.KindSample event, so `-trace` JSONL
// output and the CSV/plotting API read from the same stream. Attach a
// shared bus with SetBus to interleave samples with transport events; the
// recorder otherwise runs a private bus.
package trace

import (
	"fmt"
	"io"
	"time"

	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/telemetry"
)

// Sample is one observation of one connection.
type Sample struct {
	// At is the virtual time of the observation.
	At time.Duration
	// Conn is the flow id.
	Conn int
	// CwndPkts is the congestion window in packets.
	CwndPkts int
	// Inflight is packets in flight.
	Inflight int
	// PacingMbps is the pacing rate in Mbps (0 when unset).
	PacingMbps float64
	// SRTTms is the smoothed RTT in milliseconds.
	SRTTms float64
	// Mode is the BBR/BBRv2 state-machine mode ("" for other CCs).
	Mode string
}

// Recorder samples a set of connections on a fixed period.
type Recorder struct {
	eng    *sim.Engine
	conns  []*tcp.Conn
	period time.Duration
	bus    *telemetry.Bus
	tickFn func() // cached tick callback: re-arming allocates nothing
}

// New returns a recorder for conns sampling every period (default 50 ms).
// Call Start to begin.
func New(eng *sim.Engine, conns []*tcp.Conn, period time.Duration) *Recorder {
	if period <= 0 {
		period = 50 * time.Millisecond
	}
	r := &Recorder{eng: eng, conns: conns, period: period}
	r.tickFn = r.tick
	return r
}

// SetBus directs samples onto a shared telemetry bus instead of a private
// one. Call before Start.
func (r *Recorder) SetBus(b *telemetry.Bus) { r.bus = b }

// Start schedules periodic sampling. The first sample is taken at t=0 (well,
// at Start's virtual time) so traces capture the initial state — cwnd at
// IW, mode at STARTUP — not the state one period in.
func (r *Recorder) Start() {
	if r.bus == nil {
		r.bus = telemetry.NewBus(r.eng, telemetry.DefaultMaxEvents)
	}
	r.eng.Schedule(0, r.tickFn)
}

func (r *Recorder) tick() {
	for _, c := range r.conns {
		st := c.Stats()
		r.bus.Emit(telemetry.Event{
			Kind:  telemetry.KindSample,
			Conn:  c.ID(),
			New:   ccMode(c),
			Value: float64(st.Cwnd),
			V2:    float64(c.PacketsInFlight()),
			V3:    float64(st.PacingRate) / 1e6,
			V4:    float64(st.SRTT) / 1e6,
		})
	}
	r.eng.Schedule(r.period, r.tickFn)
}

// bbr2Modes are the BBRv2 sample labels "MODE/PHASE" by mode and phase, so
// a sample builds no string. The phase is appended in every mode, as the
// sample has always shown it.
var bbr2Modes = [4][4]string{
	bbrv2.Startup:  {"STARTUP/DOWN", "STARTUP/CRUISE", "STARTUP/REFILL", "STARTUP/UP"},
	bbrv2.Drain:    {"DRAIN/DOWN", "DRAIN/CRUISE", "DRAIN/REFILL", "DRAIN/UP"},
	bbrv2.ProbeBW:  {"PROBE_BW/DOWN", "PROBE_BW/CRUISE", "PROBE_BW/REFILL", "PROBE_BW/UP"},
	bbrv2.ProbeRTT: {"PROBE_RTT/DOWN", "PROBE_RTT/CRUISE", "PROBE_RTT/REFILL", "PROBE_RTT/UP"},
}

// ccMode extracts the state-machine mode from BBR-family modules.
func ccMode(c *tcp.Conn) string {
	switch m := c.CC().(type) {
	case *bbr.BBR:
		return m.Mode().String()
	case *bbrv2.BBRv2:
		mode, phase := m.Mode(), m.CurrentPhase()
		if uint(mode) < uint(len(bbr2Modes)) && uint(phase) < uint(len(bbr2Modes[0])) {
			return bbr2Modes[mode][phase]
		}
		return mode.String() + "/" + phase.String()
	default:
		return ""
	}
}

// Samples returns all recorded samples in time order, decoded from the
// bus's KindSample events.
func (r *Recorder) Samples() []Sample {
	events := r.bus.Filter(telemetry.KindSample)
	out := make([]Sample, 0, len(events))
	for _, e := range events {
		out = append(out, Sample{
			At:         e.At,
			Conn:       e.Conn,
			CwndPkts:   int(e.Value),
			Inflight:   int(e.V2),
			PacingMbps: e.V3,
			SRTTms:     e.V4,
			Mode:       e.New,
		})
	}
	return out
}

// ConnSamples returns the samples of one connection, in time order.
func (r *Recorder) ConnSamples(id int) []Sample {
	var out []Sample
	for _, s := range r.Samples() {
		if s.Conn == id {
			out = append(out, s)
		}
	}
	return out
}

// Modes returns the distinct mode strings of one connection in first-seen
// order — the observed state-machine trajectory.
func (r *Recorder) Modes(id int) []string {
	var out []string
	seen := ""
	for _, s := range r.ConnSamples(id) {
		if s.Mode != "" && s.Mode != seen {
			out = append(out, s.Mode)
			seen = s.Mode
		}
	}
	return out
}

// WriteCSV writes every sample as CSV (t_s, conn, cwnd, inflight,
// pacing_mbps, srtt_ms, mode).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_s,conn,cwnd,inflight,pacing_mbps,srtt_ms,mode"); err != nil {
		return err
	}
	for _, s := range r.Samples() {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%d,%d,%.2f,%.3f,%s\n",
			s.At.Seconds(), s.Conn, s.CwndPkts, s.Inflight,
			s.PacingMbps, s.SRTTms, s.Mode); err != nil {
			return err
		}
	}
	return nil
}
