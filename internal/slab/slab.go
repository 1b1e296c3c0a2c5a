// Package slab hands out a run's small objects from chunks allocated in one
// piece, as the kernel's slab caches hand out skbs and socket structs. A slab
// never takes a value back: recycling (a freelist, a pool slot kept across
// flows) is its owner's business, so a chunk lives as long as its owner.
package slab

import (
	"math/bits"
	"unsafe"
)

// Singles is how many values Next allocates one at a time before its first
// chunk: an owner that needs a handful — a bulk run's twenty connections,
// their packets and ACKs — allocates exactly what it uses.
const Singles = 32

// chunkBytes caps the chunks Next allocates at one 16 KiB size class,
// whatever the size of T.
const chunkBytes = 16 << 10

// Slab hands out zero values of T. The zero value is ready to use.
type Slab[T any] struct {
	rest   []T // values of the newest chunk not yet handed out
	issued int
}

// Next returns a value no one has used. The first Singles values come one at
// a time; after that, chunks start at Singles values and double until they
// fill 16 KiB, so an owner that needs ten thousand allocates a few hundred
// times and wastes at most one chunk.
func (s *Slab[T]) Next() *T {
	if s.issued < Singles {
		s.issued++
		return new(T)
	}
	return s.NextIn(Singles, max(1, chunkBytes/sizeOf[T]()))
}

// NextIn returns a value no one has used, from chunks that start at about lo
// values and double up to about hi (see fit), for an owner whose own sizing
// beats Next's: one that always needs more than a handful, or whose T is too
// large for 16 KiB.
func (s *Slab[T]) NextIn(lo, hi int) *T {
	if len(s.rest) == 0 {
		s.rest = make([]T, fit(min(max(s.issued, lo), hi), sizeOf[T]()))
	}
	v := &s.rest[0]
	s.rest = s.rest[1:]
	s.issued++
	return v
}

// Reserve makes the next n values NextIn hands out come from one allocation
// of exactly n, for an owner that knows its population up front; values left
// in the current chunk are dropped. A chunk that still holds n is kept.
func (s *Slab[T]) Reserve(n int) {
	if len(s.rest) < n {
		s.rest = make([]T, n)
	}
}

// fit returns how many values of the given size a chunk meant for n of them
// holds: as many as fill the power-of-two size class the n round up to, less
// the 8-byte type header the allocator puts before a chunk of more than 512
// bytes that holds pointers. Without that, 128 64-byte entries would take
// 9,472 bytes where 127 take 8,192. From 32 KiB up an allocation is whole
// pages, and a chunk holds n.
func fit(n, size int) int {
	b := n * size
	if b <= 512 || b > 32<<10 {
		return n
	}
	return max(1, (1<<bits.Len(uint(b-1))-8)/size)
}

func sizeOf[T any]() int {
	var zero T
	return max(1, int(unsafe.Sizeof(zero)))
}

// Issued returns how many values the slab has handed out.
func (s *Slab[T]) Issued() int { return s.issued }
