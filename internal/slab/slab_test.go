package slab

import "testing"

func TestNextHandsOutDistinctZeroValues(t *testing.T) {
	var s Slab[[3]int64]
	seen := map[*[3]int64]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Next()
		if seen[v] || *v != ([3]int64{}) {
			t.Fatalf("value %d was handed out before or is not zero: %v", i, *v)
		}
		seen[v] = true
		v[0] = int64(i + 1)
	}
	if s.Issued() != 1000 {
		t.Errorf("issued %d, want 1000", s.Issued())
	}
	var big Slab[[3 * chunkBytes]byte] // more than a chunk's worth each
	for i := 0; i < Singles+2; i++ {
		big.Next()
	}
}

func TestFit(t *testing.T) {
	for _, c := range []struct{ n, size, want int }{
		{128, 64, 127},   // 8,192 bytes and the header would take 9,472
		{16, 64, 15},     // likewise 1,024 → 1,152
		{4, 128, 4},      // 512 bytes carry no header
		{32, 232, 35},    // 7,424 bytes round up to 8 KiB: fill it
		{8, 1424, 11},    // 11,392 → 16 KiB
		{256, 1424, 256}, // above 32 KiB a chunk is whole pages
	} {
		if got := fit(c.n, c.size); got != c.want {
			t.Errorf("fit(%d, %d) = %d, want %d", c.n, c.size, got, c.want)
		}
	}
}

func TestReserve(t *testing.T) {
	var s Slab[[100]byte]
	s.Reserve(20)
	for i := 0; i < 20; i++ {
		if len(s.rest) != 20-i {
			t.Fatalf("before value %d the chunk holds %d, want the reserved %d", i, len(s.rest), 20-i)
		}
		s.NextIn(8, 256)
	}
	s.NextIn(8, 256)
	left := len(s.rest)
	s.Reserve(1) // the chunk NextIn just made still holds one
	if len(s.rest) != left {
		t.Errorf("Reserve replaced a chunk that still held %d values", left)
	}
}
