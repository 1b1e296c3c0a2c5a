package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"

	"mobbr/internal/sim"
)

// fuzzEvent is one event of FuzzBusLog's input: the virtual time since the
// previous one, then the event.
type fuzzEvent struct {
	gap time.Duration
	e   Event
}

// maxFuzzGap bounds one gap so that no input can overflow the clock.
const maxFuzzGap = 1 << 40

// decodeFuzzEvents reads events until data runs out: a uvarint gap in ns,
// a kind byte, an int64 conn, Old and New as a length byte and that many
// bytes, and four float64 bit patterns (integers little-endian). A trailing
// partial event is ignored.
func decodeFuzzEvents(data []byte) []fuzzEvent {
	var out []fuzzEvent
	for {
		gap, n := binary.Uvarint(data)
		if n <= 0 || len(data) < n+9 {
			return out
		}
		data = data[n:]
		fe := fuzzEvent{gap: time.Duration(gap % maxFuzzGap)}
		fe.e.Kind = Kind(data[0])
		fe.e.Conn = int(int64(binary.LittleEndian.Uint64(data[1:])))
		data = data[9:]
		for _, s := range []*string{&fe.e.Old, &fe.e.New} {
			if len(data) < 1 || len(data) < 1+int(data[0]) {
				return out
			}
			*s = string(data[1 : 1+int(data[0])])
			data = data[1+int(data[0]):]
		}
		if len(data) < 32 {
			return out
		}
		for i, v := range []*float64{&fe.e.Value, &fe.e.V2, &fe.e.V3, &fe.e.V4} {
			*v = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		data = data[32:]
		out = append(out, fe)
	}
}

// encodeFuzzEvents is decodeFuzzEvents' inverse, for seeds.
func encodeFuzzEvents(evs ...fuzzEvent) []byte {
	var b []byte
	for _, fe := range evs {
		b = binary.AppendUvarint(b, uint64(fe.gap))
		b = append(b, byte(fe.e.Kind))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(fe.e.Conn)))
		b = append(b, byte(len(fe.e.Old)))
		b = append(b, fe.e.Old...)
		b = append(b, byte(len(fe.e.New)))
		b = append(b, fe.e.New...)
		for _, v := range []float64{fe.e.Value, fe.e.V2, fe.e.V3, fe.e.V4} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// sameEvent compares two events field by field, floats by their bits.
func sameEvent(a, b Event) bool {
	return a.At == b.At && a.Kind == b.Kind && a.Conn == b.Conn && a.Old == b.Old && a.New == b.New &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) && math.Float64bits(a.V2) == math.Float64bits(b.V2) &&
		math.Float64bits(a.V3) == math.Float64bits(b.V3) && math.Float64bits(a.V4) == math.Float64bits(b.V4)
}

// FuzzBusLog emits arbitrary events on a bus at arbitrary virtual times and
// holds the byte log to an exact round trip: Events returns what was
// emitted, floats bit for bit (−0, NaN payloads, ±Inf); Filter returns each
// kind's subsequence; WriteJSONL writes json.Marshal plus a newline per
// event, or an error when an event has no JSON form.
func FuzzBusLog(f *testing.F) {
	negZero := math.Copysign(0, -1)
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	f.Add(encodeFuzzEvents(
		fuzzEvent{gap: time.Millisecond, e: Event{Kind: KindSample, Conn: 3, New: "PROBE_BW", Value: negZero, V2: 1, V3: 2.5, V4: negZero}},
		fuzzEvent{e: Event{Kind: KindTCPState, Conn: -1, Old: "open", New: "loss"}},
	))
	f.Add(encodeFuzzEvents(
		fuzzEvent{e: Event{Kind: KindPacingTimer, Value: nanPayload}},
		fuzzEvent{gap: 1, e: Event{Kind: numKinds, Conn: math.MinInt64, Old: "\xff\xfe", V2: math.Inf(-1), V4: math.Inf(1)}},
		fuzzEvent{gap: maxFuzzGap - 1, e: Event{Kind: 255, Conn: math.MaxInt64, New: " <&>"}},
	))
	// 342 records fill the first chunk to its last byte (one of 4 B with
	// no value stored, then 12 B each), and a 343rd opens the next chunk.
	fill := []fuzzEvent{{e: Event{Kind: KindRTO}}}
	for i := 1; i < 343; i++ {
		fill = append(fill, fuzzEvent{e: Event{Kind: KindRTO, Value: float64(i)}})
	}
	f.Add(encodeFuzzEvents(fill...))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeFuzzEvents(data)
		eng := sim.New(1)
		bus := NewBus(eng, 0)
		var at time.Duration
		want := make([]Event, len(evs))
		for i, fe := range evs {
			at += fe.gap
			want[i] = fe.e
			want[i].At = at
			e := fe.e
			eng.ScheduleAt(at, func() { bus.Emit(e) })
		}
		eng.Run(at)

		got := bus.Events()
		if len(got) != len(want) || bus.Dropped() != 0 {
			t.Fatalf("kept %d events and dropped %d, want %d and 0", len(got), bus.Dropped(), len(want))
		}
		for i := range want {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("event %d round-trips as %+v, want %+v", i, got[i], want[i])
			}
		}
		var seen [256]bool
		for _, e := range want {
			seen[e.Kind] = true
		}
		for k := 0; k < 256; k++ {
			if !seen[k] && k > int(numKinds) {
				continue // one absent kind past the named ones is enough
			}
			var sub []Event
			for _, e := range want {
				if e.Kind == Kind(k) {
					sub = append(sub, e)
				}
			}
			fk := bus.Filter(Kind(k))
			if len(fk) != len(sub) || (fk == nil) != (sub == nil) {
				t.Fatalf("Filter(%d) has %d events, want %d", k, len(fk), len(sub))
			}
			for i := range sub {
				if !sameEvent(fk[i], sub[i]) {
					t.Fatalf("Filter(%d)[%d] = %+v, want %+v", k, i, fk[i], sub[i])
				}
			}
		}

		var wantJSONL bytes.Buffer
		marshals := true
		for _, e := range want {
			line, err := json.Marshal(jsonEvent{TNs: int64(e.At), Kind: e.Kind.String(), Conn: e.Conn,
				Old: e.Old, New: e.New, V: e.Value, V2: e.V2, V3: e.V3, V4: e.V4})
			if err != nil {
				marshals = false
				break
			}
			wantJSONL.Write(line)
			wantJSONL.WriteByte('\n')
		}
		var gotJSONL bytes.Buffer
		err := bus.WriteJSONL(&gotJSONL)
		switch {
		case !marshals && err == nil:
			t.Fatal("WriteJSONL accepted an event json.Marshal rejects")
		case marshals && err != nil:
			t.Fatalf("WriteJSONL: %v", err)
		case marshals && !bytes.Equal(gotJSONL.Bytes(), wantJSONL.Bytes()):
			t.Fatalf("WriteJSONL differs from json.Marshal + newline per event:\n%s\nwant\n%s", gotJSONL.Bytes(), wantJSONL.Bytes())
		}
	})
}
