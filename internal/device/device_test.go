package device

import (
	"fmt"
	"testing"
	"time"

	"mobbr/internal/cpumodel"
	"mobbr/internal/sim"
)

func TestTable1OperatingPoints(t *testing.T) {
	p4 := Lookup(Pixel4)
	p6 := Lookup(Pixel6)

	// Table 1: Low-End = 576 MHz (P4) / 300 MHz (P6) on LITTLE cores.
	if f := p4.OperatingPoint(LowEnd).FreqHz; f != 576e6 {
		t.Errorf("Pixel4 Low-End = %v Hz, want 576 MHz", f)
	}
	if f := p6.OperatingPoint(LowEnd).FreqHz; f != 300e6 {
		t.Errorf("Pixel6 Low-End = %v Hz, want 300 MHz", f)
	}
	// Mid-End = 1.2 GHz on LITTLE for both.
	for m, s := range map[Model]Spec{Pixel4: p4, Pixel6: p6} {
		if f := s.OperatingPoint(MidEnd).FreqHz; f != 1.2e9 {
			t.Errorf("%v Mid-End = %v Hz, want 1.2 GHz", m, f)
		}
		if s.OperatingPoint(MidEnd).Big {
			t.Errorf("%v Mid-End should be a LITTLE core", m)
		}
		// High-End = 2.8 GHz on BIG.
		hp := s.OperatingPoint(HighEnd)
		if hp.FreqHz != 2.8e9 || !hp.Big {
			t.Errorf("%v High-End = %v Hz big=%v, want 2.8 GHz BIG", m, hp.FreqHz, hp.Big)
		}
	}
}

func TestDefaultHasNoFixedPoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Default operating point")
		}
	}()
	Lookup(Pixel4).OperatingPoint(Default)
}

func TestGovernorKinds(t *testing.T) {
	s := Lookup(Pixel4)
	for _, c := range []Config{LowEnd, MidEnd, HighEnd} {
		if g := s.Governor(c); g.Name() != "userspace" {
			t.Errorf("%v governor = %q, want userspace", c, g.Name())
		}
	}
	if g := s.Governor(Default); g.Name() != "schedutil" {
		t.Errorf("Default governor = %q, want schedutil", g.Name())
	}
}

func TestDefaultGovernorRespectsSustainedCap(t *testing.T) {
	s := Lookup(Pixel4)
	g := s.Governor(Default).(*cpumodel.SchedutilGovernor)
	for _, p := range g.Points {
		if p.FreqHz > s.SustainedCapHz {
			t.Errorf("governor point %v Hz exceeds sustained cap %v", p.FreqHz, s.SustainedCapHz)
		}
	}
}

func TestSpeedOrdering(t *testing.T) {
	// Effective speeds must order Low < Mid < High for both phones.
	for _, m := range []Model{Pixel4, Pixel6} {
		s := Lookup(m)
		low := s.OperatingPoint(LowEnd).Speed()
		mid := s.OperatingPoint(MidEnd).Speed()
		high := s.OperatingPoint(HighEnd).Speed()
		if !(low < mid && mid < high) {
			t.Errorf("%v speeds not ordered: %v %v %v", m, low, mid, high)
		}
	}
}

func TestPixel6LowComparableToPixel4Low(t *testing.T) {
	// Figure 3's premise: P6 at 300 MHz performs like P4 at 576 MHz, so
	// effective speeds must be within ~15%.
	p4 := Lookup(Pixel4).OperatingPoint(LowEnd).Speed()
	p6 := Lookup(Pixel6).OperatingPoint(LowEnd).Speed()
	if r := p6 / p4; r < 0.8 || r > 1.2 {
		t.Errorf("P6/P4 Low-End speed ratio = %.2f, want ~1", r)
	}
}

func TestNewCPUsShareClusterGovernor(t *testing.T) {
	eng := sim.New(1)
	netCPU, appCPU := NewCPUs(eng, Pixel4, Default)
	// Both cores boot at the lowest point; a speed listener tracks each.
	boot := Lookup(Pixel4).LittleFreqs[0] * Lookup(Pixel4).LittleIPC
	netSpeed, appSpeed := boot, boot
	netCPU.SetSpeedListener(func(_, s float64) { netSpeed = s })
	appCPU.SetSpeedListener(func(_, s float64) { appSpeed = s })
	// Load only the app core; the shared policy must raise both.
	var load func()
	load = func() {
		appCPU.Submit(cpumodel.OpDataCopy, appSpeed*0.002, func() {})
		eng.Schedule(time.Millisecond, load)
	}
	eng.Schedule(0, load)
	eng.Run(500 * time.Millisecond)
	if netSpeed != appSpeed {
		t.Errorf("cluster speeds diverged: net %v app %v", netSpeed, appSpeed)
	}
	if netSpeed <= boot {
		t.Errorf("net core speed %v did not rise with app-core load", netSpeed)
	}
}

func TestConfigsAndStrings(t *testing.T) {
	names := map[Config]string{LowEnd: "Low-End", MidEnd: "Mid-End", HighEnd: "High-End", Default: "Default"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Pixel4.String() != "Pixel 4" || Pixel6.String() != "Pixel 6" {
		t.Error("model names wrong")
	}
}

// TestTokens: every phone and configuration round-trips through its token,
// an invalid value encodes as unknown(N) and prints as unknown, and an
// unknown token is refused.
func TestTokens(t *testing.T) {
	for m := Model(-1); m <= Model(Models); m++ {
		text, _ := m.MarshalText()
		var back Model
		err := back.UnmarshalText(text)
		if valid := m.Valid() == nil; valid != (err == nil) || valid && back != m {
			t.Errorf("model %d: token %q decodes to %d, %v", m, text, back, err)
		}
		if m.Valid() != nil && (string(text) != fmt.Sprintf("unknown(%d)", m) || m.String() != "unknown") {
			t.Errorf("invalid model %d: token %q, name %q", m, text, m)
		}
	}
	for c := Config(-1); c <= Config(Configs); c++ {
		text, _ := c.MarshalText()
		var back Config
		err := back.UnmarshalText(text)
		if valid := c.Valid() == nil; valid != (err == nil) || valid && back != c {
			t.Errorf("config %d: token %q decodes to %d, %v", c, text, back, err)
		}
		if c.Valid() != nil && (string(text) != fmt.Sprintf("unknown(%d)", c) || c.String() != "unknown") {
			t.Errorf("invalid config %d: token %q, name %q", c, text, c)
		}
	}
}
