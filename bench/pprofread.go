package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzip-compressed profile.proto that runtime/pprof
// writes, kept here so go.mod stays free of dependencies. It decodes only
// what host-time attribution needs: for every sample, the function names on
// its stack (leaf first) and its last value (CPU nanoseconds in a CPU
// profile). Field numbers are those of
// github.com/google/pprof/proto/profile.proto.

type profSample struct {
	// stack holds function names, leaf first; inlined frames are expanded.
	stack []string
	value int64
}

var errProto = errors.New("pprof: malformed protobuf")

// protoFields walks the top-level fields of one message. Varint and fixed
// fields arrive in v, length-delimited ones in data.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// repeatedVarints appends a repeated integer field's values, which arrive
// either one per field (v) or packed into one length-delimited field (data).
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed profile into its samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := protoFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1: // Sample.location_id
					s.locs, err = repeatedVarints(s.locs, v, data)
				case 2: // Sample.value
					s.values, err = repeatedVarints(s.values, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
