package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/telemetry"
)

func TestTelemetryDisabledByDefault(t *testing.T) {
	res, err := Run(Spec{
		Device: device.Pixel4, CPU: device.HighEnd, CC: "cubic",
		Conns: 2, Network: Ethernet, Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil || res.Profile != nil || res.Engine != nil {
		t.Error("telemetry outputs non-nil with zero Telemetry config")
	}
	if res.Report.Metrics != nil {
		t.Error("Report.Metrics non-nil with metrics disabled")
	}
}

// faultedSpec is a run with a blackout mid-way — enough churn to exercise
// RTO, recovery, fault and sample events.
func faultedSpec(seed int64) Spec {
	return Spec{
		Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr",
		Conns: 2, Network: Ethernet, Duration: 2 * time.Second, Seed: seed,
		Faults: faults.Schedule{Events: []faults.Event{
			faults.Blackout{Start: 800 * time.Millisecond, Duration: 400 * time.Millisecond},
		}},
		Telemetry: telemetry.Config{Trace: true, Metrics: true, Profile: true},
	}
}

func TestTraceDeterministicByteIdentical(t *testing.T) {
	runOnce := func() *bytes.Buffer {
		res, err := Run(faultedSpec(42))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Events.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := runOnce(), runOnce()
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical-seed runs produced different JSONL traces")
	}
}

func TestTraceMonotoneParseableAndComplete(t *testing.T) {
	res, err := Run(faultedSpec(7))
	if err != nil {
		t.Fatal(err)
	}

	// Virtual timestamps never decrease across the whole stream.
	var last time.Duration
	for i, e := range res.Events.Events() {
		if e.At < last {
			t.Fatalf("event %d time %v < previous %v", i, e.At, last)
		}
		last = e.At
	}

	// Every JSONL line parses.
	var buf bytes.Buffer
	if err := res.Events.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
	}

	// The blackout must appear as begin/end fault events at its window.
	fevs := res.Events.Filter(telemetry.KindFault)
	if len(fevs) != 2 {
		t.Fatalf("fault events = %d, want begin+end", len(fevs))
	}
	if fevs[0].Old != "begin" || fevs[0].At != 800*time.Millisecond {
		t.Errorf("fault begin = %+v", fevs[0])
	}
	if fevs[1].Old != "end" || fevs[1].At != 1200*time.Millisecond {
		t.Errorf("fault end = %+v", fevs[1])
	}

	// A 400 ms blackout forces RTOs and recovery-state churn.
	if len(res.Events.Filter(telemetry.KindRTO)) == 0 {
		t.Error("no RTO events despite a 400ms blackout")
	}
	if len(res.Events.Filter(telemetry.KindTCPState)) == 0 {
		t.Error("no TCP state transitions recorded")
	}
	if len(res.Events.Filter(telemetry.KindCCMode)) == 0 {
		t.Error("no BBR mode transitions recorded")
	}
	if len(res.Events.Filter(telemetry.KindPacingTimer)) == 0 {
		t.Error("no pacing-timer events recorded")
	}
	if len(res.Events.Filter(telemetry.KindSample)) == 0 {
		t.Error("no periodic samples recorded")
	}

	// Profile phases cover before/during/after the fault window.
	for _, phase := range []string{"before", "during", "after"} {
		found := false
		for _, stPhase := range []string{phase} {
			if res.Profile.PhaseShare("net", stPhase, "pacing_timer") > 0 ||
				res.Profile.PhaseShare("net", stPhase, "ack_process") > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("profile has no netstack cycles in phase %q", phase)
		}
	}

	// Metrics landed in the report; engine stats are present.
	if res.Report.Metrics == nil {
		t.Fatal("no metrics snapshot")
	}
	digest, _ := res.Report.Metrics.HistogramDigest()
	if m := digest["pacing_timer_slip_us"]; m.Count == 0 {
		t.Error("no pacing-timer slippage samples")
	}
	if m := digest["ack_batch_pkts"]; m.Count == 0 {
		t.Error("no ACK batch samples")
	}
	if res.Engine == nil || res.Engine.Events == 0 || res.Engine.MaxPending == 0 {
		t.Errorf("engine stats = %+v", res.Engine)
	}
}

// The paper's §6.1 claim, as a regression gate: on the Low-End configuration
// the per-event pacing-timer overhead consumes a strictly larger share of
// netstack-core cycles than on the Default configuration, where large TSO
// quanta amortize the timer cost.
func TestProfilePacingShareLowEndVsDefault(t *testing.T) {
	share := func(cfg device.Config) float64 {
		res, err := Run(Spec{
			Device: device.Pixel4, CPU: cfg, CC: "bbr",
			Conns: 4, Network: Ethernet, Duration: 2 * time.Second, Seed: 1,
			Telemetry: telemetry.Config{Profile: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.Share("net", "pacing_timer")
	}
	low, def := share(device.LowEnd), share(device.Default)
	if low <= def {
		t.Errorf("pacing-timer share: Low-End %.3f <= Default %.3f; want strictly larger", low, def)
	}
	if low == 0 || def == 0 {
		t.Errorf("profile recorded no pacing cycles (low=%v default=%v)", low, def)
	}
}
