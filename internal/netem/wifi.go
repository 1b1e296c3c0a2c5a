package netem

import (
	"time"

	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// WiFiModulator perturbs an air-link pipe's rate over time to emulate
// 802.11 rate adaptation and interference: every interval the rate is
// resampled as base × N(1, sigma), clamped to [floor, ceil] fractions of the
// base. The paper notes its WiFi results "may have increased variability due
// to WiFi artifacts such as interference, variable network speeds" (§3.2);
// this is the stand-in for those artifacts.
type WiFiModulator struct {
	eng      *sim.Engine
	pipe     *Pipe
	base     units.Bandwidth
	interval time.Duration
	sigma    float64
	floor    float64
	ceil     float64
	started  bool
	tickFn   func() // bound once in Start: re-arming allocates nothing
}

// NewWiFiModulator returns a modulator for pipe around the given base rate.
// Call Start to begin modulation.
func NewWiFiModulator(eng *sim.Engine, pipe *Pipe, base units.Bandwidth) *WiFiModulator {
	return &WiFiModulator{
		eng:      eng,
		pipe:     pipe,
		base:     base,
		interval: 20 * time.Millisecond,
		sigma:    0.12,
		floor:    0.55,
		ceil:     1.10,
	}
}

// Start begins periodic rate resampling. Calling Start twice is a no-op.
func (m *WiFiModulator) Start() {
	if m.started {
		return
	}
	m.started = true
	m.tickFn = m.tick
	m.tick()
}

func (m *WiFiModulator) tick() {
	f := 1 + m.eng.Rand().NormFloat64()*m.sigma
	if f < m.floor {
		f = m.floor
	}
	if f > m.ceil {
		f = m.ceil
	}
	m.pipe.SetRate(units.Bandwidth(float64(m.base) * f))
	m.eng.Schedule(m.interval, m.tickFn)
}
