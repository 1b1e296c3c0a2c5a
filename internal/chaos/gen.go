package chaos

import (
	"math/rand"
	"strings"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/flows"
	"mobbr/internal/mobility"
	"mobbr/internal/netem"
	"mobbr/internal/units"
)

// genCCs is the generator's congestion-control draw table. Every entry,
// like every device, CPU configuration and network drawn from their
// tables' counts, is a value Spec.Validate accepts, so generated specs are
// valid by construction — a finding is always a simulator bug (or budget
// blowout), never a malformed input.
var genCCs = []string{
	"cubic", "bbr", "bbr2", "reno",
	"bbr,cubic", "bbr2,cubic", "bbr,reno", "bbr,bbr2",
}

// Generate derives one valid scenario spec from the generator seed. The
// same seed always yields the same spec (the draw order is fixed), so a
// finding's generator seed is itself a reproducer of the whole discovery.
func Generate(seed int64) core.Spec {
	rng := rand.New(rand.NewSource(seed))
	dur := time.Duration(300+rng.Intn(501)) * time.Millisecond
	spec := core.Spec{
		Device:   device.Model(rng.Intn(device.Models)),
		CPU:      device.Config(rng.Intn(device.Configs)),
		Network:  core.Network(rng.Intn(core.Networks)),
		CC:       genCCs[rng.Intn(len(genCCs))],
		Conns:    1 + rng.Intn(8),
		Duration: dur,
		Warmup:   dur / 5,
		Seed:     1 + rng.Int63n(1_000_000),
		Check:    true,
	}
	if strings.Contains(spec.CC, ",") && spec.Conns < 2 {
		spec.Conns = 2
	}
	if rng.Float64() < 0.25 {
		spec.Stride = 1 + rng.Float64()*7
	}
	if rng.Float64() < 0.15 {
		on := rng.Intn(2) == 0
		spec.PacingOverride = &on
	}
	if rng.Float64() < 0.15 {
		spec.HardwarePacing = true
	}
	if rng.Float64() < 0.10 {
		spec.DisableModel = true
	}
	if rng.Float64() < 0.10 {
		spec.FixedCwnd = 8 + rng.Intn(249)
	}
	if rng.Float64() < 0.10 {
		spec.FixedPacingRate = genMbps(rng, 5, 200)
	}
	if rng.Float64() < 0.15 {
		spec.SndBuf = units.KB * units.DataSize(128+rng.Intn(3969))
	}
	if rng.Float64() < 0.40 {
		spec.TC = genTC(rng)
	}
	// Faults and Mobility are mutually exclusive; the rest run unimpaired.
	switch r := rng.Float64(); {
	case r < 0.40:
		spec.Faults = genSchedule(rng, dur)
	case r < 0.65:
		spec.Mobility = genMobility(rng, dur)
	}
	// App workloads ride last so every earlier draw — and therefore every
	// historical generator seed's spec prefix — is unchanged.
	if rng.Float64() < 0.25 {
		spec.Workload = genWorkload(rng)
	}
	// Churn rides after them for the same reason. It replaces the fixed
	// connection set, so it is drawn only without a workload or a CC mix.
	if spec.Workload.Kind == "" && !strings.Contains(spec.CC, ",") && rng.Float64() < 0.25 {
		spec.Flows = genFlows(rng)
	}
	return spec
}

// genFlows draws a churn population sized for sub-second runs: a live cap
// of 20–500 flows, up to that many open at t=0, Poisson arrivals at 0.2–1.2×
// the cap per second and 1–64 KB mice, so connections finish and are
// recycled within the run.
func genFlows(rng *rand.Rand) *flows.Config {
	live := 20 + rng.Intn(481)
	return &flows.Config{
		MaxLive:      live,
		InitialFlows: rng.Intn(live + 1),
		ArrivalRate:  float64(live) * (0.2 + rng.Float64()),
		MiceBytes:    units.KB * units.DataSize(1+rng.Intn(64)),
	}
}

// genWorkload draws a request/response or chunked-streaming workload. All
// values sit inside apps.Workload.Validate's bounds, and sizes stay small
// enough that short chaos runs still complete operations.
func genWorkload(rng *rand.Rand) apps.Workload {
	if rng.Intn(2) == 0 {
		wl := apps.Workload{
			Kind:    apps.KindReqRep,
			ReqSize: units.KB * units.DataSize(1+rng.Intn(64)),
		}
		if rng.Float64() < 0.5 {
			wl.RespSize = 128 + units.DataSize(rng.Intn(8*1024-127))
		}
		if rng.Float64() < 0.5 {
			wl.Think = time.Duration(rng.Intn(101)) * time.Millisecond
		}
		return wl
	}
	wl := apps.Workload{
		Kind:  apps.KindStream,
		Chunk: genMs(rng, 100, 300),
	}
	if rng.Float64() < 0.5 {
		// A strictly ascending sub-ladder of the default rungs.
		full := apps.DefaultLadder()
		lo := rng.Intn(len(full) - 1)
		hi := lo + 1 + rng.Intn(len(full)-lo-1)
		wl.Ladder = full[lo : hi+1]
	}
	if rng.Float64() < 0.3 {
		wl.Startup = 1 + rng.Intn(4)
	}
	if rng.Float64() < 0.3 {
		wl.DownRate = genMbps(rng, 10, 200)
	}
	return wl
}

func genMbps(rng *rand.Rand, lo, hi int) units.Bandwidth {
	return units.Bandwidth(lo+rng.Intn(hi-lo+1)) * units.Mbps
}

func genMs(rng *rand.Rand, lo, hi int) time.Duration {
	return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond
}

// genTC draws router impairments inside netem.TC.Validate's bounds. Rates
// stay >= 20 Mbps and loss <= 3% so the transfer itself remains viable —
// starving it is a legitimate scenario but drowns every other signal.
func genTC(rng *rand.Rand) netem.TC {
	var tc netem.TC
	if rng.Float64() < 0.7 {
		tc.Rate = genMbps(rng, 20, 1000)
	}
	if rng.Float64() < 0.6 {
		tc.Delay = genMs(rng, 1, 50)
	}
	if rng.Float64() < 0.3 {
		tc.Loss = rng.Float64() * 0.03
	}
	if rng.Float64() < 0.4 {
		tc.QueuePackets = 64 + rng.Intn(1937)
		if rng.Float64() < 0.3 {
			tc.ECNThreshold = tc.QueuePackets / 2
		}
	}
	if rng.Float64() < 0.10 {
		tc.ReorderJitter = time.Duration(100+rng.Intn(1901)) * time.Microsecond
	}
	return tc
}

// genSchedule builds a fault schedule that passes Schedule.Validate by
// construction: each stateful family (outage, delay-excursion, burst-loss,
// rate-ramp) advances its own time cursor, so same-family windows never
// overlap; instantaneous steps land anywhere.
func genSchedule(rng *rand.Rand, dur time.Duration) faults.Schedule {
	n := 1 + rng.Intn(4)
	cursor := map[string]time.Duration{}
	window := func(family string, gapHi, durLo, durHi int) (start, d time.Duration) {
		start = cursor[family] + genMs(rng, 0, gapHi)
		d = genMs(rng, durLo, durHi)
		cursor[family] = start + d
		return start, d
	}
	anyAt := func() time.Duration { return genMs(rng, 0, int(dur/time.Millisecond)) }
	var evs []faults.Event
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			start, d := window("outage", 200, 20, 120)
			evs = append(evs, faults.Blackout{Start: start, Duration: d})
		case 1:
			at, outage := window("outage", 200, 10, 80)
			h := faults.Handover{At: at, Outage: outage}
			if rng.Intn(2) == 0 {
				h.Rate = genMbps(rng, 20, 400)
			}
			if rng.Intn(2) == 0 {
				h.Delay = genMs(rng, 5, 60)
			}
			evs = append(evs, h)
		case 2:
			evs = append(evs, faults.RateStep{At: anyAt(), Rate: genMbps(rng, 10, 600)})
		case 3:
			evs = append(evs, faults.DelayStep{At: anyAt(), Delay: genMs(rng, 1, 80)})
		case 4:
			start, d := window("delay-excursion", 200, 20, 150)
			evs = append(evs, faults.DelaySpike{Start: start, Duration: d, Extra: genMs(rng, 5, 80)})
		case 5:
			// Always closed windows: an open-ended burst keeps the rest
			// of its family unusable for the remaining draws.
			start, d := window("burst-loss", 200, 30, 200)
			evs = append(evs, faults.BurstLoss{Start: start, Duration: d, GE: netem.GEConfig{
				PGoodToBad: 0.01 + rng.Float64()*0.19,
				PBadToGood: 0.10 + rng.Float64()*0.40,
				LossGood:   rng.Float64() * 0.01,
				LossBad:    0.10 + rng.Float64()*0.40,
			}})
		case 6:
			start, d := window("rate-ramp", 200, 80, 300)
			evs = append(evs, faults.RateRamp{
				Start: start, Duration: d,
				From: genMbps(rng, 20, 600), To: genMbps(rng, 20, 600),
			})
		}
	}
	return faults.Schedule{Events: evs}
}

// genMobility synthesizes and compiles a preset commute covering the run.
// Synthesis and compilation are deterministic in the drawn parameters; the
// (unreachable for generated parameters) error paths fall back to an
// unimpaired run rather than aborting the soak.
func genMobility(rng *rand.Rand, dur time.Duration) *mobility.Compiled {
	presets := mobility.Presets()
	p := presets[rng.Intn(len(presets))]
	tick := time.Duration(50+rng.Intn(101)) * time.Millisecond
	seed := 1 + rng.Int63n(1_000_000)
	tr, err := mobility.Synthesize(p, dur, tick, seed)
	if err != nil {
		return nil
	}
	c, err := mobility.Compile(tr, mobility.CompileOptions{})
	if err != nil {
		return nil
	}
	return c
}
