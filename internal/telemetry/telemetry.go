// Package telemetry is the simulation's unified observability layer: a
// structured event bus stamped with virtual time, a metrics registry of
// fixed-bucket histograms, a CPU-cycle attribution profiler, and engine
// self-metrics. It is the substrate the paper's cost-attribution argument
// needs — "where did the cycles go" and "what happened during the blackout
// at t=12s" become queries over data instead of debugger sessions.
//
// Everything in this package is zero-cost when disabled: every recording
// method is safe to call on a nil receiver and returns immediately, so an
// instrumented hot path pays only a nil-check (and allocates nothing) when
// telemetry is off. Tests assert this contract (see the AllocsPerRun tests;
// go run ./bench measures it as telemetry.emit_off_ns).
//
// Events carry only virtual-clock timestamps and deterministic payloads, so
// two runs with the same seed produce byte-identical JSONL exports —
// wall-clock quantities live exclusively in EngineStats, which never enters
// the event stream.
package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"mobbr/internal/sim"
)

// Kind types an event. The field semantics per kind are:
//
//	KindTCPState   Conn; Old/New = loss-recovery state ("open", "recovery", "loss")
//	KindRTO        Conn; Value = consecutive-RTO backoff count
//	KindSpuriousRTO Conn; Value = restored cwnd (packets)
//	KindIdleRestart Conn; Value = cwnd after the RFC 2861 decay
//	KindConnFailed Conn; New = failure reason
//	KindCCMode     Conn; Old/New = BBR/BBRv2 state-machine mode label
//	KindPacingTimer Conn; Value = timer slippage in µs (CPU queue + service
//	               delay between the hrtimer expiry and the send running)
//	KindFault      Conn = -1; Old = "begin" or "end"; New = fault description
//	KindGovernor   Conn = -1; Value = new speed (ref cycles/s), V2 = old speed
//	KindViolation  Conn (or -1); New = rule name; Old = detail
//	KindSample     Conn; New = CC mode label; Value = cwnd (pkts),
//	               V2 = inflight (pkts), V3 = pacing rate (Mbps), V4 = srtt (ms)
//	KindSegment    Conn = -1; Old = "begin" or "end"; New = trace-segment
//	               label ("<trace> outage|degraded|nominal"); Value = the
//	               segment's mean rate in Mbps
type Kind uint8

// Event kinds.
const (
	KindTCPState Kind = iota
	KindRTO
	KindSpuriousRTO
	KindIdleRestart
	KindConnFailed
	KindCCMode
	KindPacingTimer
	KindFault
	KindGovernor
	KindViolation
	KindSample
	KindSegment
	numKinds
)

var kindNames = [numKinds]string{
	"tcp_state", "rto", "spurious_rto", "idle_restart", "conn_failed",
	"cc_mode", "pacing_timer", "fault", "governor", "violation", "sample",
	"segment",
}

// String returns the kind's snake_case name, as used in JSONL output.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one structured, virtual-timestamped occurrence. Old/New and the
// Value fields are kind-specific; see Kind for the schema.
type Event struct {
	// At is the virtual time, stamped by Bus.Emit.
	At time.Duration
	// Kind types the event.
	Kind Kind
	// Conn is the flow id, or -1 for sim-wide events.
	Conn int
	// Old and New carry state-transition labels or descriptions.
	Old, New string
	// Value and V2–V4 carry kind-specific numbers.
	Value, V2, V3, V4 float64
}

// DefaultMaxEvents caps a bus's buffer so a pathological run cannot exhaust
// memory; overflow increments Dropped instead of growing.
const DefaultMaxEvents = 1 << 21

// Chunk sizes of the bus log: the first chunk holds firstChunkBytes, each
// next one twice its predecessor, up to maxChunkBytes. No record is longer
// than maxRecordBytes: kind, mask, a 10-byte time delta, a 10-byte conn,
// two label indexes of at most 5 bytes and four 8-byte values.
const (
	firstChunkBytes = 4 << 10
	maxChunkBytes   = 64 << 10
	maxRecordBytes  = 64
)

// Presence bits of a record's mask byte: which of Old, New and the four
// values the record carries.
const (
	hasOld byte = 1 << iota
	hasNew
	hasValue
	hasV2
	hasV3
	hasV4
)

// valueBits names the presence bit of Value, V2, V3 and V4, in that order.
var valueBits = [4]byte{hasValue, hasV2, hasV3, hasV4}

// labelsHint sizes a bus's label table once: a run's labels are a few state
// and mode names.
const labelsHint = 64

// Bus collects events from every instrumented layer of one run. A nil *Bus
// is the disabled state: Emit on nil is a no-op, so call sites need no
// enabled-check beyond the pointer they already hold.
//
// The log is a list of byte chunks holding one variable-length record per
// event, filled in order and never copied: a record that does not fit in
// the last chunk opens the next one. A record is the kind byte, a mask of
// the fields present, the uvarint time since the previous record (wrapping
// uint64 arithmetic), the zigzag-varint Conn, a uvarint index into the
// label table for a non-empty Old and New, and the raw 8 bytes of each
// value whose bits are non-zero, so every float round-trips exactly.
type Bus struct {
	eng     *sim.Engine
	max     int
	chunks  [][]byte
	n       int           // events kept, over all chunks
	last    time.Duration // At of the newest kept event
	labels  []string
	labelIx map[string]uint64
	dropped uint64
}

// NewBus returns a bus stamping events from eng's clock. maxEvents <= 0
// uses DefaultMaxEvents.
func NewBus(eng *sim.Engine, maxEvents int) *Bus {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Bus{eng: eng, max: maxEvents,
		labels: make([]string, 0, labelsHint), labelIx: make(map[string]uint64, labelsHint)}
}

// Emit records e at the current virtual time. Safe on a nil bus (no-op).
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	if b.n >= b.max {
		b.dropped++
		return
	}
	now := b.eng.Now()
	var buf [maxRecordBytes]byte
	rec := append(buf[:0], byte(e.Kind), 0)
	rec = binary.AppendUvarint(rec, uint64(now)-uint64(b.last))
	rec = binary.AppendVarint(rec, int64(e.Conn))
	if e.Old != "" {
		rec[1] |= hasOld
		rec = binary.AppendUvarint(rec, b.label(e.Old))
	}
	if e.New != "" {
		rec[1] |= hasNew
		rec = binary.AppendUvarint(rec, b.label(e.New))
	}
	for i, v := range [4]float64{e.Value, e.V2, e.V3, e.V4} {
		if bits := math.Float64bits(v); bits != 0 {
			rec[1] |= valueBits[i]
			rec = binary.LittleEndian.AppendUint64(rec, bits)
		}
	}
	last := len(b.chunks) - 1
	if last < 0 || len(rec) > cap(b.chunks[last])-len(b.chunks[last]) {
		size := firstChunkBytes
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), maxChunkBytes)
		}
		b.chunks = append(b.chunks, make([]byte, 0, size))
		last++
	}
	b.chunks[last] = append(b.chunks[last], rec...)
	b.last = now
	b.n++
}

// label returns s's index in the label table, adding it if it is new.
func (b *Bus) label(s string) uint64 {
	ix, ok := b.labelIx[s]
	if !ok {
		ix = uint64(len(b.labels))
		b.labels = append(b.labels, s)
		b.labelIx[s] = ix
	}
	return ix
}

// each decodes the log in emission order (which is also non-decreasing
// virtual-time order, since the engine clock never goes backwards) and
// calls fn with every event until fn returns false.
func (b *Bus) each(fn func(e *Event) bool) {
	var (
		at time.Duration
		e  Event // one record for the whole walk: fn must not keep &e
	)
	for _, c := range b.chunks {
		for len(c) > 0 {
			e = Event{Kind: Kind(c[0])}
			mask := c[1]
			delta, n := binary.Uvarint(c[2:])
			c = c[2+n:]
			at += time.Duration(delta)
			e.At = at
			conn, n := binary.Varint(c)
			c = c[n:]
			e.Conn = int(conn)
			if mask&hasOld != 0 {
				ix, n := binary.Uvarint(c)
				c = c[n:]
				e.Old = b.labels[ix]
			}
			if mask&hasNew != 0 {
				ix, n := binary.Uvarint(c)
				c = c[n:]
				e.New = b.labels[ix]
			}
			for i, v := range [4]*float64{&e.Value, &e.V2, &e.V3, &e.V4} {
				if mask&valueBits[i] != 0 {
					*v = math.Float64frombits(binary.LittleEndian.Uint64(c))
					c = c[8:]
				}
			}
			if !fn(&e) {
				return
			}
		}
	}
}

// Events returns a copy of every recorded event in emission order, in one
// exactly-sized slice; only tests call it — exporters walk the log through
// WriteJSONL and Filter.
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, 0, b.n)
	b.each(func(e *Event) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// Dropped returns how many events overflowed the buffer cap.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// jsonEvent is the JSONL wire form. Field order is fixed by declaration,
// and encoding/json renders floats deterministically, so identical event
// streams serialize byte-identically.
type jsonEvent struct {
	TNs  int64   `json:"t_ns"`
	Kind string  `json:"kind"`
	Conn int     `json:"conn"`
	Old  string  `json:"old,omitempty"`
	New  string  `json:"new,omitempty"`
	V    float64 `json:"value,omitempty"`
	V2   float64 `json:"v2,omitempty"`
	V3   float64 `json:"v3,omitempty"`
	V4   float64 `json:"v4,omitempty"`
}

// jsonlFlushBytes is how much encoded output WriteJSONL gathers before it
// hands the writer a chunk.
const jsonlFlushBytes = 32 << 10

// WriteJSONL writes one JSON object per line for every recorded event. The
// output is deterministic: same seed, same spec → byte-identical bytes.
// Events are encoded through one reused record and buffer (Encoder.Encode
// is Marshal plus the newline), and reach w in chunks rather than a Write
// per event.
func (b *Bus) WriteJSONL(w io.Writer) error {
	if b == nil {
		return nil
	}
	var (
		buf bytes.Buffer
		je  jsonEvent
		err error
	)
	enc := json.NewEncoder(&buf)
	i := 0
	b.each(func(e *Event) bool {
		je = jsonEvent{
			TNs: int64(e.At), Kind: e.Kind.String(), Conn: e.Conn,
			Old: e.Old, New: e.New,
			V: e.Value, V2: e.V2, V3: e.V3, V4: e.V4,
		}
		if err = enc.Encode(&je); err != nil {
			err = fmt.Errorf("telemetry: marshal event %d: %w", i, err)
			return false
		}
		i++
		if buf.Len() >= jsonlFlushBytes {
			_, err = w.Write(buf.Bytes())
			buf.Reset()
		}
		return err == nil
	})
	if err != nil || buf.Len() == 0 {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// Filter returns the events of one kind, in order.
func (b *Bus) Filter(k Kind) []Event {
	if b == nil {
		return nil
	}
	var out []Event
	b.each(func(e *Event) bool {
		if e.Kind == k {
			out = append(out, *e)
		}
		return true
	})
	return out
}

// Config selects which telemetry subsystems a run enables. The zero value
// disables everything (the hot path pays only nil-checks).
type Config struct {
	// Trace enables the structured event bus (and KindSample recording).
	Trace bool `json:"trace,omitempty"`
	// Metrics enables the metrics registry and engine self-metrics.
	Metrics bool `json:"metrics,omitempty"`
	// Profile enables cycle attribution by op × core × phase.
	Profile bool `json:"profile,omitempty"`
	// MaxEvents caps the event buffer (0 = DefaultMaxEvents).
	MaxEvents int `json:"max_events,omitempty"`
}

// Any reports whether any subsystem is enabled.
func (c Config) Any() bool { return c.Trace || c.Metrics || c.Profile }
