package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobbr/internal/apps"
	"mobbr/internal/device"
	"mobbr/internal/faults"
	"mobbr/internal/mobility"
	"mobbr/internal/netem"
	"mobbr/internal/units"
)

// TestSpecJSONRoundTrip proves every behavior-affecting field survives
// encode → decode, including the typed fault schedule.
func TestSpecJSONRoundTrip(t *testing.T) { checkRoundTrip(t, fullSpec()) }

// checkRoundTrip proves spec survives encode → decode deep-equal and
// re-encodes to the same bytes (corpus diffs, journal hashing), and
// returns its encoding.
func checkRoundTrip(tb testing.TB, spec Spec) []byte {
	tb.Helper()
	data, err := EncodeSpec(spec)
	if err != nil {
		tb.Fatalf("encode: %v", err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		tb.Fatalf("decode %s: %v", data, err)
	}
	if !reflect.DeepEqual(got, spec) {
		tb.Fatalf("round trip of %s diverged:\n got  %#v\n want %#v", data, got, spec)
	}
	again, err := EncodeSpec(got)
	if err != nil {
		tb.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(data) {
		tb.Fatalf("re-encode diverged:\n first  %s\n second %s", data, again)
	}
	return data
}

// fullSpec sets every behavior-affecting field the fixed connection set
// takes, with one fault event of each kind.
func fullSpec() Spec {
	on := true
	return Spec{
		Device:          device.Pixel6,
		CPU:             device.MidEnd,
		CC:              "bbr,cubic",
		Conns:           7,
		Duration:        1300 * time.Millisecond,
		Warmup:          200 * time.Millisecond,
		Network:         WiFi,
		TC:              netem.TC{Rate: 600 * units.Mbps, Delay: 3 * time.Millisecond, Loss: 0.01, QueuePackets: 32, ECNThreshold: 8, ReorderJitter: time.Millisecond},
		PacingOverride:  &on,
		Stride:          5,
		HardwarePacing:  true,
		FixedPacingRate: 20 * units.Mbps,
		FixedCwnd:       70,
		DisableModel:    true,
		Interval:        100 * time.Millisecond,
		SndBuf:          512 * units.KB,
		Seed:            42,
		Faults: faults.Schedule{Hop: 1, Events: []faults.Event{
			faults.Blackout{Start: 100 * time.Millisecond, Duration: 50 * time.Millisecond},
			faults.RateStep{At: 200 * time.Millisecond, Rate: 100 * units.Mbps},
			faults.RateRamp{Start: 300 * time.Millisecond, Duration: 100 * time.Millisecond, From: 100 * units.Mbps, To: 10 * units.Mbps, Steps: 4},
			faults.DelaySpike{Start: 500 * time.Millisecond, Duration: 40 * time.Millisecond, Extra: 20 * time.Millisecond},
			faults.DelayStep{At: 600 * time.Millisecond, Delay: 9 * time.Millisecond},
			faults.BurstLoss{Start: 700 * time.Millisecond, Duration: 80 * time.Millisecond, GE: netem.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.9}},
			faults.Handover{At: 900 * time.Millisecond, Outage: 30 * time.Millisecond, Rate: 300 * units.Mbps, Delay: 2 * time.Millisecond},
		}},
		Check:        true,
		MaxEvents:    123456,
		MaxWallClock: 30 * time.Second,
		MaxStall:     1000,
		Inject:       Inject{Kind: InjectCorruptInflight, At: 400 * time.Millisecond},
	}
}

// TestSpecJSONWorkloadRoundTrip proves both app workload kinds survive
// encode → decode with every field, and that a spec without a workload
// block decodes to the iperf default — old corpus entries and journals
// replay unchanged.
func TestSpecJSONWorkloadRoundTrip(t *testing.T) {
	for _, spec := range workloadSpecs() {
		checkRoundTrip(t, spec)
	}

	// Back-compat: a pre-workload wire form (no "workload" key) must decode
	// to the zero Workload, i.e. the bulk iperf upload.
	legacy := `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","seed":3}`
	got, err := DecodeSpec([]byte(legacy))
	if err != nil {
		t.Fatalf("legacy spec rejected: %v", err)
	}
	if got.Workload.Kind != "" {
		t.Fatalf("legacy spec decoded with workload %q, want bulk default", got.Workload.Kind)
	}
	// And a bulk spec must not emit the key at all (byte-stable archives).
	data, err := EncodeSpec(got)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "workload") {
		t.Fatalf("bulk spec encodes a workload block: %s", data)
	}
}

// workloadSpecs holds one spec of each app workload kind, every field set.
func workloadSpecs() []Spec {
	var specs []Spec
	for _, wl := range []apps.Workload{
		{Kind: apps.KindReqRep, ReqSize: 48 * units.KB, RespSize: 2 * units.KB, Think: 25 * time.Millisecond},
		{Kind: apps.KindStream, Chunk: 200 * time.Millisecond,
			Ladder:  []units.Bandwidth{2 * units.Mbps, 8 * units.Mbps},
			Startup: 3, RespSize: 256, DownRate: 40 * units.Mbps},
	} {
		specs = append(specs, Spec{Device: device.Pixel4, CPU: device.LowEnd, CC: "bbr", Conns: 2,
			Network: Ethernet, Seed: 5, Workload: wl})
	}
	return specs
}

// TestSpecJSONMobilityRoundTrip proves a synthesized mobility trace
// recompiles to the identical schedule and segments on decode.
func TestSpecJSONMobilityRoundTrip(t *testing.T) { checkRoundTrip(t, mobilitySpec(t)) }

// mobilitySpec replays a synthesized driving trace.
func mobilitySpec(tb testing.TB) Spec {
	tr, err := mobility.Synthesize(mobility.Driving, 3*time.Second, 100*time.Millisecond, 7)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := mobility.Compile(tr, mobility.CompileOptions{Hop: 0, OtherRTT: 30 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	return Spec{CC: "bbr", Conns: 1, Network: Cellular, Duration: tr.Duration(), Mobility: c, Seed: 3}
}

// TestSpecJSONStrict proves unknown fields and bad tokens fail loudly.
func TestSpecJSONStrict(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","bogus":1}`, "bogus"},
		{"bad device", `{"device":"pixel9","cpu":"low","cc":"bbr","conns":1,"network":"ethernet"}`, "device token"},
		{"bad cpu", `{"device":"pixel4","cpu":"turbo","cc":"bbr","conns":1,"network":"ethernet"}`, "cpu token"},
		{"bad network", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"6g"}`, "network token"},
		{"bad event kind", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","faults":{"events":[{"kind":"meteor"}]}}`, "event kind"},
		{"bad duration", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","duration":"fast"}`, "duration"},
		{"mixed-case key", `{"device":"pixel4","Cpu":"low","cc":"bbr","conns":1,"network":"ethernet"}`, `key "Cpu"`},
		{"folded key", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","ſeed":3}`, `key "ſeed"`},
		{"nested mixed-case key", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","workload":{"Kind":"reqrep"}}`, `key "Kind"`},
		{"untagged field's key", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","faults":{"events":[{"kind":"burst-loss","ge":{"pgoodtobad":0.1}}]}}`, `key "pgoodtobad"`},
		{"repeated key", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"conns":2,"network":"ethernet"}`, `repeated key "conns"`},
		{"repeated nested key", `{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","tc":{"loss":0.1,"loss":0.2}}`, `repeated key "loss"`},
		{"saved fuzz input", fuzzInput(t, "de26c43d7d45c9f5"), `key "deviCe"`},
		{"trailing data", fuzzInput(t, "7160ac6fee7fbe4f"), "data after the spec object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec([]byte(tc.in))
			if err == nil {
				t.Fatalf("decode accepted %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// fuzzInput returns the one []byte value of a saved FuzzDecodeSpec input.
func fuzzInput(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeSpec", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
	if !ok {
		t.Fatalf("%s: no []byte value", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// TestNetworkTokens: every network round-trips through its token, an
// invalid one prints and encodes as "unknown", and an unknown token is
// refused.
func TestNetworkTokens(t *testing.T) {
	for n := Network(-1); n <= Network(Networks); n++ {
		text, _ := n.MarshalText()
		var back Network
		err := back.UnmarshalText(text)
		if valid := uint(n) < uint(Networks); valid != (err == nil) || valid && back != n ||
			!valid && (string(text) != "unknown" || n.String() != "unknown") {
			t.Errorf("network %d: token %q decodes to %d, %v", n, text, back, err)
		}
	}
}

// TestReproLineRuns proves the repro line's embedded JSON decodes back to
// a runnable spec.
func TestReproLineRuns(t *testing.T) {
	spec := Spec{CC: "bbr", Conns: 2, Duration: 500 * time.Millisecond, Seed: 9}
	line := ReproLine(spec)
	const marker = "-run-spec '"
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("repro line %q has no -run-spec payload", line)
	}
	payload := strings.TrimSuffix(line[i+len(marker):], "'")
	got, err := DecodeSpec([]byte(payload))
	if err != nil {
		t.Fatalf("repro payload does not decode: %v", err)
	}
	if got.Seed != 9 || got.Conns != 2 || got.CC != "bbr" {
		t.Fatalf("repro payload diverged: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("repro payload does not validate: %v", err)
	}
}

// FuzzDecodeSpec feeds DecodeSpec arbitrary bytes: the spec JSON arrives
// from outside the program (repro lines, corpus entries, archives). It
// must never panic, and whatever it accepts must round-trip: re-encoded,
// it decodes deep-equal and encodes to the same bytes again.
func FuzzDecodeSpec(f *testing.F) {
	entries, err := filepath.Glob(filepath.Join("..", "chaos", "testdata", "corpus", "*.json"))
	if err != nil || len(entries) == 0 {
		f.Fatalf("chaos corpus: %v, %d entries", err, len(entries))
	}
	for _, name := range entries {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		var entry struct{ Spec json.RawMessage }
		if err := json.Unmarshal(raw, &entry); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add([]byte(entry.Spec))
	}
	specs := append([]Spec{fullSpec(), mobilitySpec(f), flowsSpec()}, workloadSpecs()...)
	for _, spec := range specs {
		data := checkRoundTrip(f, spec)
		f.Add(data)
		// Truncated and mistyped variants steer the fuzzer at the errors.
		f.Add(data[:len(data)/2])
		f.Add(bytes.Replace(data, []byte(`"conns":`), []byte(`"conns":"`), 1))
		f.Add(bytes.Replace(data, []byte(`"ms"`), []byte(`"parsecs"`), 1))
	}
	f.Add([]byte(`{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","flows":{"max_live":-1}}`))
	f.Add([]byte(`{"device":null,"cpu":"low","cc":"bbr","conns":1,"network":"ethernet"}`))
	f.Add([]byte(`{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"network":"ethernet","faults":{"hop":2,"events":[]}}`))
	f.Add([]byte(`{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"CONNS":2,"network":"ethernet"}`))
	f.Add([]byte(`{"device":"pixel4","cpu":"low","cc":"bbr","conns":1,"conns":2,"network":"ethernet"}`))
	names := map[string]bool{}
	wireNames(reflect.TypeOf(specWire{}), names)
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		checkRoundTrip(t, spec)
		// Accepted input uses only keys the encoder writes, each once per
		// object: dropping repeats in a generic decode loses no token.
		var generic any
		if err := json.Unmarshal(data, &generic); err != nil {
			t.Fatalf("accepted %q is not JSON: %v", data, err)
		}
		for _, key := range objectKeys(generic, nil) {
			if !names[key] {
				t.Fatalf("accepted %q with key %q, which no wire field is named", data, key)
			}
		}
		again, _ := json.Marshal(generic)
		if n, m := jsonTokens(t, data), jsonTokens(t, again); n != m {
			t.Fatalf("accepted %q with a repeated key (%d tokens, %d without repeats)", data, n, m)
		}
	})
}

// wireNames adds to names every key the encoder can write for t: each
// reachable struct field's json tag name, or its Go name when untagged.
func wireNames(t reflect.Type, names map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		wireNames(t.Elem(), names)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			names[name] = true
			wireNames(f.Type, names)
		}
	}
}

// objectKeys appends every object key in a generic JSON value.
func objectKeys(v any, keys []string) []string {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			keys = objectKeys(e, append(keys, k))
		}
	case []any:
		for _, e := range v {
			keys = objectKeys(e, keys)
		}
	}
	return keys
}

// jsonTokens counts the tokens of the first JSON value in data.
func jsonTokens(t *testing.T, data []byte) int {
	dec := json.NewDecoder(bytes.NewReader(data))
	n, depth := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("tokens of %q: %v", data, err)
		}
		n++
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
		if depth == 0 {
			return n
		}
	}
}
