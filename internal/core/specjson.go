// Spec JSON codec: a stable, self-contained wire form of a core.Spec, so
// every failure anywhere in the harness can carry an exact one-command
// reproducer and the chaos corpus can replay minimized specs forever.
// Everything behavior-affecting round-trips: device, CPU config, CC mix,
// network, tc knobs, pacing/master-module overrides, budgets, the typed
// fault schedule, a synthesized-or-ingested mobility trace (recompiled
// deterministically on decode), and the injected harness fault.
//
// Durations encode as Go duration strings ("250ms"), bandwidths as bit/s,
// sizes as bytes. Decoding is strict: unknown fields and unknown enum
// tokens are errors, so a drifted corpus entry fails loudly instead of
// silently running a different experiment.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/flows"
	"mobbr/internal/mobility"
	"mobbr/internal/netem"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// jdur is a time.Duration that encodes as its Go string form.
type jdur time.Duration

// MarshalText implements encoding.TextMarshaler.
func (d jdur) MarshalText() ([]byte, error) { return []byte(time.Duration(d).String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (d *jdur) UnmarshalText(text []byte) error {
	v, err := time.ParseDuration(string(text))
	*d = jdur(v)
	return err
}

// tcWire mirrors netem.TC.
type tcWire struct {
	RateBps       int64   `json:"rate_bps,omitempty"`
	Delay         jdur    `json:"delay,omitempty"`
	Loss          float64 `json:"loss,omitempty"`
	QueuePackets  int     `json:"queue_packets,omitempty"`
	ECNThreshold  int     `json:"ecn_threshold,omitempty"`
	ReorderJitter jdur    `json:"reorder_jitter,omitempty"`
}

func (w tcWire) zero() bool { return w == (tcWire{}) }

// eventWire is the flat union of every faults.Event kind; Kind selects
// which fields are meaningful.
type eventWire struct {
	Kind     string          `json:"kind"`
	Start    jdur            `json:"start,omitempty"`
	At       jdur            `json:"at,omitempty"`
	Duration jdur            `json:"duration,omitempty"`
	Extra    jdur            `json:"extra,omitempty"`
	Delay    jdur            `json:"delay,omitempty"`
	Outage   jdur            `json:"outage,omitempty"`
	RateBps  int64           `json:"rate_bps,omitempty"`
	FromBps  int64           `json:"from_bps,omitempty"`
	ToBps    int64           `json:"to_bps,omitempty"`
	Steps    int             `json:"steps,omitempty"`
	GE       *netem.GEConfig `json:"ge,omitempty"`
}

func encodeEvent(ev faults.Event) (eventWire, error) {
	switch e := ev.(type) {
	case faults.Blackout:
		return eventWire{Kind: "blackout", Start: jdur(e.Start), Duration: jdur(e.Duration)}, nil
	case faults.RateStep:
		return eventWire{Kind: "rate-step", At: jdur(e.At), RateBps: int64(e.Rate)}, nil
	case faults.RateRamp:
		return eventWire{Kind: "rate-ramp", Start: jdur(e.Start), Duration: jdur(e.Duration),
			FromBps: int64(e.From), ToBps: int64(e.To), Steps: e.Steps}, nil
	case faults.DelaySpike:
		return eventWire{Kind: "delay-spike", Start: jdur(e.Start), Duration: jdur(e.Duration), Extra: jdur(e.Extra)}, nil
	case faults.DelayStep:
		return eventWire{Kind: "delay-step", At: jdur(e.At), Delay: jdur(e.Delay)}, nil
	case faults.BurstLoss:
		ge := e.GE
		return eventWire{Kind: "burst-loss", Start: jdur(e.Start), Duration: jdur(e.Duration), GE: &ge}, nil
	case faults.Handover:
		return eventWire{Kind: "handover", At: jdur(e.At), Outage: jdur(e.Outage),
			RateBps: int64(e.Rate), Delay: jdur(e.Delay)}, nil
	default:
		return eventWire{}, fmt.Errorf("core: fault event %T has no wire form", ev)
	}
}

func (w eventWire) decode() (faults.Event, error) {
	switch w.Kind {
	case "blackout":
		return faults.Blackout{Start: time.Duration(w.Start), Duration: time.Duration(w.Duration)}, nil
	case "rate-step":
		return faults.RateStep{At: time.Duration(w.At), Rate: units.Bandwidth(w.RateBps)}, nil
	case "rate-ramp":
		return faults.RateRamp{Start: time.Duration(w.Start), Duration: time.Duration(w.Duration),
			From: units.Bandwidth(w.FromBps), To: units.Bandwidth(w.ToBps), Steps: w.Steps}, nil
	case "delay-spike":
		return faults.DelaySpike{Start: time.Duration(w.Start), Duration: time.Duration(w.Duration),
			Extra: time.Duration(w.Extra)}, nil
	case "delay-step":
		return faults.DelayStep{At: time.Duration(w.At), Delay: time.Duration(w.Delay)}, nil
	case "burst-loss":
		b := faults.BurstLoss{Start: time.Duration(w.Start), Duration: time.Duration(w.Duration)}
		if w.GE != nil {
			b.GE = *w.GE
		}
		return b, nil
	case "handover":
		return faults.Handover{At: time.Duration(w.At), Outage: time.Duration(w.Outage),
			Rate: units.Bandwidth(w.RateBps), Delay: time.Duration(w.Delay)}, nil
	default:
		return nil, fmt.Errorf("core: unknown fault event kind %q", w.Kind)
	}
}

// scheduleWire mirrors faults.Schedule.
type scheduleWire struct {
	Hop    int         `json:"hop,omitempty"`
	Events []eventWire `json:"events"`
}

// sampleWire mirrors mobility.Sample.
type sampleWire struct {
	T       jdur    `json:"t"`
	RateBps int64   `json:"rate_bps"`
	RTT     jdur    `json:"rtt,omitempty"`
	Loss    float64 `json:"loss,omitempty"`
}

// mobilityWire carries the trace and the compile options; the schedule is
// recompiled on decode (Compile is deterministic), keeping entries small
// and always consistent with the compiler.
type mobilityWire struct {
	Name    string       `json:"name"`
	Tick    jdur         `json:"tick,omitempty"`
	Samples []sampleWire `json:"samples"`
	Options optionsWire  `json:"options"`
}

// optionsWire mirrors mobility.CompileOptions.
type optionsWire struct {
	Hop            int     `json:"hop,omitempty"`
	RateHysteresis float64 `json:"rate_hysteresis,omitempty"`
	MinDelayChange jdur    `json:"min_delay_change,omitempty"`
	LossThreshold  float64 `json:"loss_threshold,omitempty"`
	OtherRTT       jdur    `json:"other_rtt,omitempty"`
	MinOneWayDelay jdur    `json:"min_one_way_delay,omitempty"`
}

// injectWire mirrors Inject.
type injectWire struct {
	Kind string `json:"kind"`
	At   jdur   `json:"at,omitempty"`
}

// workloadWire mirrors apps.Workload. Absent from the wire (nil pointer)
// means the iperf bulk default, so every pre-workload corpus entry and
// journal replays unchanged.
type workloadWire struct {
	Kind      string  `json:"kind"`
	ReqBytes  int64   `json:"req_bytes,omitempty"`
	RespBytes int64   `json:"resp_bytes,omitempty"`
	Think     jdur    `json:"think,omitempty"`
	Chunk     jdur    `json:"chunk,omitempty"`
	LadderBps []int64 `json:"ladder_bps,omitempty"`
	Startup   int     `json:"startup,omitempty"`
	DownBps   int64   `json:"down_rate_bps,omitempty"`
}

// specWire is the full Spec wire form. The enums encode as their tokens
// (MarshalText); flows.Config and telemetry.Config, which hold only
// numbers and bools, carry their own json tags. Absent flows means the
// fixed connection set, so every pre-churn corpus entry and journal
// replays unchanged.
type specWire struct {
	Device          device.Model      `json:"device"`
	CPU             device.Config     `json:"cpu"`
	CC              string            `json:"cc"`
	Conns           int               `json:"conns"`
	Duration        jdur              `json:"duration,omitempty"`
	Warmup          jdur              `json:"warmup,omitempty"`
	Network         Network           `json:"network"`
	TC              *tcWire           `json:"tc,omitempty"`
	Pacing          *bool             `json:"pacing,omitempty"`
	Stride          float64           `json:"stride,omitempty"`
	HardwarePacing  bool              `json:"hw_pacing,omitempty"`
	FixedPacingBps  int64             `json:"fixed_pacing_bps,omitempty"`
	FixedCwnd       int               `json:"fixed_cwnd,omitempty"`
	DisableModel    bool              `json:"disable_model,omitempty"`
	Interval        jdur              `json:"interval,omitempty"`
	SndBufBytes     int64             `json:"sndbuf_bytes,omitempty"`
	Seed            int64             `json:"seed,omitempty"`
	Faults          *scheduleWire     `json:"faults,omitempty"`
	Mobility        *mobilityWire     `json:"mobility,omitempty"`
	Check           bool              `json:"check,omitempty"`
	MaxEvents       uint64            `json:"max_events,omitempty"`
	MaxWallClockStr jdur              `json:"max_wall_clock,omitempty"`
	MaxStall        uint64            `json:"max_stall,omitempty"`
	Inject          *injectWire       `json:"inject,omitempty"`
	Telemetry       *telemetry.Config `json:"telemetry,omitempty"`
	Workload        *workloadWire     `json:"workload,omitempty"`
	Flows           *flows.Config     `json:"flows,omitempty"`
}

// EncodeSpec renders the spec as compact, round-trippable JSON.
func EncodeSpec(s Spec) ([]byte, error) {
	w := specWire{
		Device:          s.Device,
		CPU:             s.CPU,
		CC:              s.CC,
		Conns:           s.Conns,
		Duration:        jdur(s.Duration),
		Warmup:          jdur(s.Warmup),
		Network:         s.Network,
		Pacing:          s.PacingOverride,
		Stride:          s.Stride,
		HardwarePacing:  s.HardwarePacing,
		FixedPacingBps:  int64(s.FixedPacingRate),
		FixedCwnd:       s.FixedCwnd,
		DisableModel:    s.DisableModel,
		Interval:        jdur(s.Interval),
		SndBufBytes:     int64(s.SndBuf),
		Seed:            s.Seed,
		Check:           s.Check,
		MaxEvents:       s.MaxEvents,
		MaxWallClockStr: jdur(s.MaxWallClock),
		MaxStall:        s.MaxStall,
		Flows:           s.Flows,
	}
	if tc := (tcWire{
		RateBps: int64(s.TC.Rate), Delay: jdur(s.TC.Delay), Loss: s.TC.Loss,
		QueuePackets: s.TC.QueuePackets, ECNThreshold: s.TC.ECNThreshold,
		ReorderJitter: jdur(s.TC.ReorderJitter),
	}); !tc.zero() {
		w.TC = &tc
	}
	if !s.Faults.Empty() || s.Faults.Hop != 0 {
		sw := scheduleWire{Hop: s.Faults.Hop}
		for _, ev := range s.Faults.Events {
			ew, err := encodeEvent(ev)
			if err != nil {
				return nil, err
			}
			sw.Events = append(sw.Events, ew)
		}
		w.Faults = &sw
	}
	if s.Mobility != nil {
		mw := mobilityWire{
			Name: s.Mobility.Trace.Name,
			Tick: jdur(s.Mobility.Trace.Tick),
			Options: optionsWire{
				Hop:            s.Mobility.Options.Hop,
				RateHysteresis: s.Mobility.Options.RateHysteresis,
				MinDelayChange: jdur(s.Mobility.Options.MinDelayChange),
				LossThreshold:  s.Mobility.Options.LossThreshold,
				OtherRTT:       jdur(s.Mobility.Options.OtherRTT),
				MinOneWayDelay: jdur(s.Mobility.Options.MinOneWayDelay),
			},
		}
		for _, sm := range s.Mobility.Trace.Samples {
			mw.Samples = append(mw.Samples, sampleWire{
				T: jdur(sm.T), RateBps: int64(sm.Rate), RTT: jdur(sm.RTT), Loss: sm.Loss,
			})
		}
		w.Mobility = &mw
	}
	if s.Inject != (Inject{}) {
		w.Inject = &injectWire{Kind: s.Inject.Kind, At: jdur(s.Inject.At)}
	}
	if tel := s.Telemetry; tel != (telemetry.Config{}) {
		w.Telemetry = &tel
	}
	if s.Workload.Kind != "" {
		ww := workloadWire{
			Kind:      s.Workload.Kind,
			ReqBytes:  int64(s.Workload.ReqSize),
			RespBytes: int64(s.Workload.RespSize),
			Think:     jdur(s.Workload.Think),
			Chunk:     jdur(s.Workload.Chunk),
			Startup:   s.Workload.Startup,
			DownBps:   int64(s.Workload.DownRate),
		}
		for _, r := range s.Workload.Ladder {
			ww.LadderBps = append(ww.LadderBps, int64(r))
		}
		w.Workload = &ww
	}
	return json.Marshal(w)
}

// DecodeSpec parses EncodeSpec's output back into a Spec, recompiling any
// mobility trace. Unknown fields and tokens are errors.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	// An absent or null token leaves its out-of-range sentinel in place.
	w := specWire{Device: -1, CPU: -1, Network: -1}
	if err := dec.Decode(&w); err != nil {
		return Spec{}, fmt.Errorf("core: decoding spec: %w", err)
	}
	if w.Device < 0 || w.CPU < 0 || w.Network < 0 {
		return Spec{}, fmt.Errorf("core: spec lacks a device, cpu or network token")
	}
	s := Spec{
		Device:          w.Device,
		CPU:             w.CPU,
		CC:              w.CC,
		Conns:           w.Conns,
		Duration:        time.Duration(w.Duration),
		Warmup:          time.Duration(w.Warmup),
		Network:         w.Network,
		PacingOverride:  w.Pacing,
		Stride:          w.Stride,
		HardwarePacing:  w.HardwarePacing,
		FixedPacingRate: units.Bandwidth(w.FixedPacingBps),
		FixedCwnd:       w.FixedCwnd,
		DisableModel:    w.DisableModel,
		Interval:        time.Duration(w.Interval),
		SndBuf:          units.DataSize(w.SndBufBytes),
		Seed:            w.Seed,
		Check:           w.Check,
		MaxEvents:       w.MaxEvents,
		MaxWallClock:    time.Duration(w.MaxWallClockStr),
		MaxStall:        w.MaxStall,
		Flows:           w.Flows,
	}
	if w.TC != nil {
		s.TC = netem.TC{
			Rate: units.Bandwidth(w.TC.RateBps), Delay: time.Duration(w.TC.Delay),
			Loss: w.TC.Loss, QueuePackets: w.TC.QueuePackets,
			ECNThreshold: w.TC.ECNThreshold, ReorderJitter: time.Duration(w.TC.ReorderJitter),
		}
	}
	if w.Faults != nil {
		s.Faults.Hop = w.Faults.Hop
		for _, ew := range w.Faults.Events {
			ev, err := ew.decode()
			if err != nil {
				return Spec{}, err
			}
			s.Faults.Events = append(s.Faults.Events, ev)
		}
	}
	if w.Mobility != nil {
		tr := mobility.Trace{Name: w.Mobility.Name, Tick: time.Duration(w.Mobility.Tick)}
		for _, sm := range w.Mobility.Samples {
			tr.Samples = append(tr.Samples, mobility.Sample{
				T: time.Duration(sm.T), Rate: units.Bandwidth(sm.RateBps),
				RTT: time.Duration(sm.RTT), Loss: sm.Loss,
			})
		}
		c, err := mobility.Compile(tr, mobility.CompileOptions{
			Hop:            w.Mobility.Options.Hop,
			RateHysteresis: w.Mobility.Options.RateHysteresis,
			MinDelayChange: time.Duration(w.Mobility.Options.MinDelayChange),
			LossThreshold:  w.Mobility.Options.LossThreshold,
			OtherRTT:       time.Duration(w.Mobility.Options.OtherRTT),
			MinOneWayDelay: time.Duration(w.Mobility.Options.MinOneWayDelay),
		})
		if err != nil {
			return Spec{}, fmt.Errorf("core: recompiling mobility trace %q: %w", tr.Name, err)
		}
		s.Mobility = c
	}
	if w.Inject != nil {
		s.Inject = Inject{Kind: w.Inject.Kind, At: time.Duration(w.Inject.At)}
	}
	if w.Telemetry != nil {
		s.Telemetry = *w.Telemetry
	}
	if w.Workload != nil {
		s.Workload = apps.Workload{
			Kind:     w.Workload.Kind,
			ReqSize:  units.DataSize(w.Workload.ReqBytes),
			RespSize: units.DataSize(w.Workload.RespBytes),
			Think:    time.Duration(w.Workload.Think),
			Chunk:    time.Duration(w.Workload.Chunk),
			Startup:  w.Workload.Startup,
			DownRate: units.Bandwidth(w.Workload.DownBps),
		}
		for _, r := range w.Workload.LadderBps {
			s.Workload.Ladder = append(s.Workload.Ladder, units.Bandwidth(r))
		}
	}
	return s, nil
}

// ReproLine returns the exact one-command reproducer for this spec: paste
// it into a shell at the repo root. Every failure path that reports a
// broken point attaches one.
func ReproLine(s Spec) string {
	data, err := EncodeSpec(s)
	if err != nil {
		// A spec that cannot encode still deserves a diagnostic line.
		return fmt.Sprintf("(spec not encodable: %v; %s seed=%d)", err, s, s.Seed)
	}
	return fmt.Sprintf("go run ./cmd/mobbr -run-spec '%s'", data)
}
