// Package device describes the two test phones (Pixel 4 and Pixel 6) and
// the four CPU configurations of the paper's Table 1, mapping each to a
// cpumodel operating point or governor. Frequencies follow the phones' real
// DVFS tables; IPC factors express how fast each core retires the cost
// model's reference cycles (in-order LITTLE cores well below the big
// out-of-order cores).
package device

import (
	"fmt"

	"mobbr/internal/cpumodel"
	"mobbr/internal/sim"
)

// Model identifies a phone.
type Model int

// Supported phones.
const (
	// Pixel4 (2019, Snapdragon 855, Android 11, kernel 4.14).
	Pixel4 Model = iota
	// Pixel6 (2021, Tensor, Android 12, kernel 5.10).
	Pixel6
)

// models is the phone table, indexed by Model: each phone's token (its
// spelling in the spec codec and on the command line, kept as bytes so
// MarshalText need not allocate), display name and CPU description.
var models = [...]struct {
	token []byte
	name  string
	spec  Spec
}{
	// Snapdragon 855: 4×A55 + 3+1×A76.
	Pixel4: {[]byte("pixel4"), "Pixel 4", Spec{
		LittleIPC: 0.55,
		BigIPC:    1.00,
		LittleFreqs: []float64{
			576e6, 748.8e6, 998.4e6, 1209.6e6, 1440e6, 1612.8e6, 1785.6e6,
		},
		BigFreqs: []float64{
			825.6e6, 1171.2e6, 1612.8e6, 2092.8e6, 2419.2e6, 2841.6e6,
		},
		SustainedCapHz: 1.35e9,
	}},
	// Google Tensor: 4×A55 + 2×A76 + 2×X1. The X1 cluster is folded into
	// BigFreqs. The paper's Figure 3 shows the Pixel 6 at 300 MHz roughly
	// matching the Pixel 4 at 576 MHz, so the Tensor A55 cluster (newer
	// kernel, larger caches, system-level cache) retires netstack work at
	// nearly twice the per-cycle rate.
	Pixel6: {[]byte("pixel6"), "Pixel 6", Spec{
		LittleIPC: 1.00,
		BigIPC:    1.20,
		LittleFreqs: []float64{
			300e6, 574e6, 738e6, 930e6, 1098e6, 1197e6, 1328e6,
			1491e6, 1598e6, 1704e6, 1803e6,
		},
		BigFreqs: []float64{
			500e6, 851e6, 1277e6, 1703e6, 2049e6, 2450e6, 2802e6,
		},
		SustainedCapHz: 1.2e9,
	}},
}

// Config is a Table 1 CPU configuration.
type Config int

// Table 1 configurations.
const (
	// LowEnd pins the minimum LITTLE frequency with BIG cores disabled.
	LowEnd Config = iota
	// MidEnd pins 1.2 GHz on LITTLE cores with BIG cores disabled.
	MidEnd
	// HighEnd pins the maximum BIG frequency with LITTLE cores disabled.
	HighEnd
	// Default leaves the stock dynamic governor in charge.
	Default
)

// configs is the Table 1 table, indexed by Config: each configuration's
// token and display name.
var configs = [...]struct {
	token []byte
	name  string
}{
	LowEnd:  {[]byte("low"), "Low-End"},
	MidEnd:  {[]byte("mid"), "Mid-End"},
	HighEnd: {[]byte("high"), "High-End"},
	Default: {[]byte("default"), "Default"},
}

// Models and Configs count the phones and the configurations: the valid
// values run from 0 up to the count.
const (
	Models  = len(models)
	Configs = len(configs)
)

// String returns the phone name.
func (m Model) String() string {
	if m.Valid() != nil {
		return "unknown"
	}
	return models[m].name
}

// String returns the configuration name.
func (c Config) String() string {
	if c.Valid() != nil {
		return "unknown"
	}
	return configs[c].name
}

// Valid reports whether the model is a known phone. Callers validate specs
// with this before Lookup, whose panic is then a programmer error.
func (m Model) Valid() error {
	if uint(m) >= uint(Models) {
		return fmt.Errorf("device: unknown model %d", int(m))
	}
	return nil
}

// Valid reports whether the configuration is one of Table 1's.
func (c Config) Valid() error {
	if uint(c) >= uint(Configs) {
		return fmt.Errorf("device: unknown CPU configuration %d", int(c))
	}
	return nil
}

// MarshalText returns the phone's token, or "unknown(N)" for an invalid
// model, so an invalid spec still encodes into its repro line. Callers
// must not modify the result.
func (m Model) MarshalText() ([]byte, error) {
	if m.Valid() != nil {
		return fmt.Appendf(nil, "unknown(%d)", int(m)), nil
	}
	return models[m].token, nil
}

// MarshalText returns the configuration's token, or "unknown(N)". Callers
// must not modify the result.
func (c Config) MarshalText() ([]byte, error) {
	if c.Valid() != nil {
		return fmt.Appendf(nil, "unknown(%d)", int(c)), nil
	}
	return configs[c].token, nil
}

// UnmarshalText sets m to the phone whose token is text.
func (m *Model) UnmarshalText(text []byte) error {
	for i := range models {
		if string(models[i].token) == string(text) {
			*m = Model(i)
			return nil
		}
	}
	return fmt.Errorf("device: unknown device token %q", text)
}

// UnmarshalText sets c to the configuration whose token is text.
func (c *Config) UnmarshalText(text []byte) error {
	for i := range configs {
		if string(configs[i].token) == string(text) {
			*c = Config(i)
			return nil
		}
	}
	return fmt.Errorf("device: unknown cpu token %q", text)
}

// Spec holds a phone's CPU description.
type Spec struct {
	// LittleIPC / BigIPC are the per-cluster IPC factors.
	LittleIPC, BigIPC float64
	// LittleFreqs / BigFreqs are the DVFS steps in Hz, ascending.
	LittleFreqs, BigFreqs []float64
	// SustainedCapHz bounds the frequency the stock governor holds for
	// a sustained softirq-heavy load: EAS energy policy plus the
	// thermal envelope keep a Pixel's LITTLE cluster below its burst
	// maximum during minutes-long bulk transfers.
	SustainedCapHz float64
}

// Lookup returns the spec for a phone model; it panics on an invalid one.
// The frequency tables are shared: callers read them and never write.
func Lookup(m Model) Spec { return models[m].spec }

// OperatingPoint returns the pinned operating point for a fixed
// configuration, per Table 1. It panics for Default, which is dynamic.
func (s Spec) OperatingPoint(c Config) cpumodel.OperatingPoint {
	switch c {
	case LowEnd:
		return cpumodel.OperatingPoint{FreqHz: s.LittleFreqs[0], IPC: s.LittleIPC}
	case MidEnd:
		return cpumodel.OperatingPoint{FreqHz: 1.2e9, IPC: s.LittleIPC}
	case HighEnd:
		return cpumodel.OperatingPoint{FreqHz: 2.8e9, IPC: s.BigIPC, Big: true}
	default:
		panic("device: Default configuration has no fixed operating point")
	}
}

// Governor returns the governor implementing configuration c, per Table 1:
// the userspace governor pinned to the config's frequency, or the stock
// dynamic governor for Default. Under EAS the network stack's softirq load
// runs on the LITTLE cluster, so the Default governor scales across the
// LITTLE DVFS table.
func (s Spec) Governor(c Config) cpumodel.Governor {
	if c != Default {
		return cpumodel.FixedGovernor{Point: s.OperatingPoint(c)}
	}
	var points []cpumodel.OperatingPoint
	for _, f := range s.LittleFreqs {
		if s.SustainedCapHz > 0 && f > s.SustainedCapHz {
			break
		}
		points = append(points, cpumodel.OperatingPoint{FreqHz: f, IPC: s.LittleIPC})
	}
	return &cpumodel.SchedutilGovernor{Points: points}
}

// NewCPUs builds both cores the transfer exercises: the softirq (netstack)
// core and the application core that runs the iPerf sender's copy loop.
// Each gets its own governor instance at the same Table 1 configuration —
// on the phone they are two cores of the same (enabled) cluster.
// The two cores share the cluster's cpufreq policy, so a single governor
// drives both.
func NewCPUs(eng *sim.Engine, m Model, c Config) (netCPU, appCPU *cpumodel.CPU) {
	spec := Lookup(m)
	netCPU = cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 1)
	appCPU = cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), 1)
	spec.Governor(c).Start(eng, netCPU, appCPU)
	return netCPU, appCPU
}
