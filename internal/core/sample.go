package core

import (
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
	"mobbr/internal/telemetry"
)

// samplePeriod is how often a traced run samples each connection.
const samplePeriod = 50 * time.Millisecond

// sampler polls a fixed connection set every samplePeriod — congestion
// window, inflight, pacing rate, smoothed RTT and the BBR state-machine mode
// — onto the run's bus as KindSample events: the simulation-side analogue
// of polling `ss -ti` during an iPerf run.
type sampler struct {
	eng    *sim.Engine
	conns  []*tcp.Conn
	bus    *telemetry.Bus
	tickFn func() // cached tick callback: re-arming allocates nothing
}

// startSampler schedules sampling. The first sample is taken at once, so a
// trace captures the initial state — cwnd at IW, mode at STARTUP — not the
// state one period in.
func startSampler(eng *sim.Engine, conns []*tcp.Conn, bus *telemetry.Bus) {
	s := &sampler{eng: eng, conns: conns, bus: bus}
	s.tickFn = s.tick
	eng.Schedule(0, s.tickFn)
}

func (s *sampler) tick() {
	for _, c := range s.conns {
		s.bus.Emit(telemetry.Event{
			Kind:  telemetry.KindSample,
			Conn:  c.ID(),
			New:   ccMode(c),
			Value: float64(c.Cwnd()),
			V2:    float64(c.PacketsInFlight()),
			V3:    float64(c.PacingRate()) / 1e6,
			V4:    float64(c.SRTT()) / 1e6,
		})
	}
	s.eng.Schedule(samplePeriod, s.tickFn)
}

// bbr2Modes are the BBRv2 sample labels "MODE/PHASE" by mode and phase, so
// a sample builds no string. The phase is appended in every mode, as the
// sample has always shown it.
var bbr2Modes = [4][4]string{
	bbr.Startup:  {"STARTUP/DOWN", "STARTUP/CRUISE", "STARTUP/REFILL", "STARTUP/UP"},
	bbr.Drain:    {"DRAIN/DOWN", "DRAIN/CRUISE", "DRAIN/REFILL", "DRAIN/UP"},
	bbr.ProbeBW:  {"PROBE_BW/DOWN", "PROBE_BW/CRUISE", "PROBE_BW/REFILL", "PROBE_BW/UP"},
	bbr.ProbeRTT: {"PROBE_RTT/DOWN", "PROBE_RTT/CRUISE", "PROBE_RTT/REFILL", "PROBE_RTT/UP"},
}

// ccMode extracts the state-machine mode from BBR-family modules, looking
// through the master module's wrapper ("" for other CCs).
func ccMode(c *tcp.Conn) string {
	m := c.CC()
	if w, ok := m.(*cc.Master); ok {
		m = w.Inner()
	}
	switch m := m.(type) {
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
