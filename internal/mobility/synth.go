package mobility

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mobbr/internal/units"
)

// Synthesis produces dataset-shaped traces without shipping datasets: a
// Markov-modulated channel walks between signal-quality states once per
// tick, each state drawing a rate uniformly from its band plus a
// state-dependent RTT and loss. The presets are tuned to an LTE uplink
// (the Appendix A.1 link tops out around 18–20 Mbps) and differ in how
// fast the channel churns and how often it blacks out — a stationary
// phone barely moves between states; a train rides through tunnels.

// Preset names a built-in mobility pattern.
type Preset string

// Synthesis presets.
const (
	// Stationary is a phone on a desk: steady rate, rare shallow fades.
	Stationary Preset = "stationary"
	// Walking adds regular fades and the occasional short outage.
	Walking Preset = "walking"
	// Driving churns between cells quickly, with handover outages.
	Driving Preset = "driving"
	// Train has long good stretches cut by deep multi-second tunnel
	// outages and trackside fades.
	Train Preset = "train"
)

// Presets lists the built-in presets.
func Presets() []Preset { return []Preset{Stationary, Walking, Driving, Train} }

// ParsePreset resolves a preset name (case-insensitive).
func ParsePreset(s string) (Preset, error) {
	for _, p := range Presets() {
		if strings.EqualFold(s, string(p)) {
			return p, nil
		}
	}
	return "", fmt.Errorf("mobility: unknown preset %q (want one of %v)", s, Presets())
}

// synthState is one channel-quality state of the Markov model.
type synthState struct {
	lo, hi    units.Bandwidth // rate band; lo == hi == 0 is an outage
	rtt       time.Duration   // base RTT in this state
	rttJitter time.Duration   // uniform extra RTT in [0, rttJitter)
	loss      float64         // stationary loss fraction while in state
}

// The shared state vocabulary, indexed by the transition matrices below.
var synthStates = [numStates]synthState{
	stGood:   {12 * units.Mbps, 20 * units.Mbps, 50 * time.Millisecond, 10 * time.Millisecond, 0},
	stFair:   {5 * units.Mbps, 12 * units.Mbps, 70 * time.Millisecond, 20 * time.Millisecond, 0},
	stWeak:   {500 * units.Kbps, 4 * units.Mbps, 110 * time.Millisecond, 40 * time.Millisecond, 0.02},
	stEdge:   {100 * units.Kbps, 1 * units.Mbps, 160 * time.Millisecond, 60 * time.Millisecond, 0.08},
	stOutage: {0, 0, 0, 0, 1},
}

// State indices into synthStates.
const (
	stGood = iota
	stFair
	stWeak
	stEdge
	stOutage
	numStates
)

// presetMatrix returns the per-tick transition matrix (rows sum to 1) and
// the start state. Probabilities assume the default 100 ms tick: the mean
// dwell in a state is tick/(1-p_stay).
func presetMatrix(p Preset) ([numStates][numStates]float64, int, error) {
	var m [numStates][numStates]float64
	switch p {
	case Stationary:
		m[stGood] = [numStates]float64{0.995, 0.005, 0, 0, 0}
		m[stFair] = [numStates]float64{0.03, 0.97, 0, 0, 0}
		m[stWeak] = [numStates]float64{0, 1, 0, 0, 0} // unreachable; exits immediately
		m[stEdge] = [numStates]float64{0, 1, 0, 0, 0}
		m[stOutage] = [numStates]float64{0, 1, 0, 0, 0}
	case Walking:
		m[stGood] = [numStates]float64{0.98, 0.015, 0.005, 0, 0}
		m[stFair] = [numStates]float64{0.03, 0.95, 0.02, 0, 0}
		m[stWeak] = [numStates]float64{0, 0.06, 0.92, 0, 0.02}
		m[stEdge] = [numStates]float64{0, 0, 1, 0, 0}
		m[stOutage] = [numStates]float64{0, 0, 0.20, 0, 0.80}
	case Driving:
		m[stGood] = [numStates]float64{0.95, 0.04, 0.01, 0, 0}
		m[stFair] = [numStates]float64{0.05, 0.90, 0.04, 0.01, 0}
		m[stWeak] = [numStates]float64{0, 0.07, 0.88, 0.03, 0.02}
		m[stEdge] = [numStates]float64{0, 0, 0.10, 0.85, 0.05}
		m[stOutage] = [numStates]float64{0, 0, 0.05, 0.10, 0.85}
	case Train:
		m[stGood] = [numStates]float64{0.97, 0.02, 0, 0, 0.01}
		m[stFair] = [numStates]float64{0.04, 0.93, 0.02, 0, 0.01}
		m[stWeak] = [numStates]float64{0, 0.07, 0.90, 0, 0.03}
		m[stEdge] = [numStates]float64{0, 0, 1, 0, 0}
		m[stOutage] = [numStates]float64{0, 0.02, 0.05, 0, 0.93}
	default:
		return m, 0, fmt.Errorf("mobility: unknown preset %q", p)
	}
	return m, stGood, nil
}

// DefaultTick is the sample spacing Synthesize and the CLI default to.
const DefaultTick = 100 * time.Millisecond

// Synthesize generates a trace of the given duration on a fixed tick from
// the preset's Markov model. The same (preset, dur, tick, seed) quadruple
// always yields the identical trace.
func Synthesize(p Preset, dur, tick time.Duration, seed int64) (Trace, error) {
	if tick <= 0 {
		tick = DefaultTick
	}
	if dur < tick {
		return Trace{}, fmt.Errorf("mobility: synthesis duration %v shorter than tick %v", dur, tick)
	}
	matrix, state, err := presetMatrix(p)
	if err != nil {
		return Trace{}, err
	}
	n := int(dur / tick)
	if n > maxSamples {
		return Trace{}, fmt.Errorf("mobility: synthesis would yield %d samples (max %d)", n, maxSamples)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := Trace{Name: string(p), Tick: tick, Samples: make([]Sample, 0, n)}
	for i := 0; i < n; i++ {
		st := synthStates[state]
		s := Sample{T: time.Duration(i) * tick, Loss: st.loss}
		if st.hi > 0 {
			// Quantize to 100 kbps so compiled rate steps read cleanly.
			r := st.lo + units.Bandwidth(rng.Float64()*float64(st.hi-st.lo))
			s.Rate = r / (100 * units.Kbps) * (100 * units.Kbps)
			if s.Rate < 100*units.Kbps {
				s.Rate = 100 * units.Kbps
			}
			s.RTT = st.rtt
			if st.rttJitter > 0 {
				s.RTT += time.Duration(rng.Int63n(int64(st.rttJitter)))
			}
		}
		tr.Samples = append(tr.Samples, s)
		// Advance the chain one tick.
		u := rng.Float64()
		acc := 0.0
		for next, pr := range matrix[state] {
			acc += pr
			if u < acc {
				state = next
				break
			}
		}
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, fmt.Errorf("mobility: synthesized trace invalid: %w", err)
	}
	return tr, nil
}
