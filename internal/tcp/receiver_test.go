package tcp

import (
	"math/rand"
	"sort"
	"testing"

	"mobbr/internal/seg"
	"mobbr/internal/units"
)

// refReassembly is the reassembly bookkeeping as it was before the in-place
// rewrite — append + sort.Slice + sweep, and slicing merged blocks off the
// front — kept as the oracle insertOOO/mergeContiguous are compared against.
type refReassembly struct {
	rcvNxt int64
	ooo    []seg.SackBlock
	good   units.DataSize
}

func (m *refReassembly) insert(nb seg.SackBlock) {
	m.ooo = append(m.ooo, nb)
	sort.Slice(m.ooo, func(i, j int) bool { return m.ooo[i].Start < m.ooo[j].Start })
	merged := m.ooo[:1]
	for _, b := range m.ooo[1:] {
		last := &merged[len(merged)-1]
		if b.Start <= last.End {
			if b.End > last.End {
				last.End = b.End
			}
		} else {
			merged = append(merged, b)
		}
	}
	m.ooo = merged
}

func (m *refReassembly) merge() {
	for len(m.ooo) > 0 && m.ooo[0].Start <= m.rcvNxt {
		if m.ooo[0].End > m.rcvNxt {
			m.good += units.DataSize(m.ooo[0].End - m.rcvNxt)
			m.rcvNxt = m.ooo[0].End
		}
		m.ooo = m.ooo[1:]
	}
}

// FuzzReceiverOOO feeds the receiver's out-of-order list and the reference
// the same stream of block inserts (fresh, duplicate, overlapping, adjacent,
// bridging several holes) and in-order advances, and requires identical
// state after every step. Two bytes encode one operation.
func FuzzReceiverOOO(f *testing.F) {
	f.Add([]byte{2, 1, 5, 1, 2, 1, 3, 9, 0, 4})        // duplicate, bridge, advance
	f.Add([]byte{9, 1, 7, 1, 5, 1, 3, 1, 1, 1, 0, 40}) // descending inserts, then drain
	f.Add([]byte{4, 2, 4, 6, 5, 0, 3, 1, 6, 1})        // same start, zero length, adjacent
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}

	const unit = 1448
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 8192 {
			ops = ops[:8192]
		}
		var (
			r   Receiver
			ref refReassembly
		)
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int64(ops[i]), int64(ops[i+1])
			if a%8 == 0 {
				// In-order data up to b/8 units past the edge, then the merge.
				adv := (b / 8) * unit
				r.rcvNxt += adv
				r.goodBytes += units.DataSize(adv)
				ref.rcvNxt += adv
				ref.good += units.DataSize(adv)
				r.mergeContiguous()
				ref.merge()
			} else {
				start := r.rcvNxt + (a%32)*unit
				nb := seg.SackBlock{Start: start, End: start + (b%6)*unit}
				r.insertOOO(nb)
				ref.insert(nb)
			}
			if r.rcvNxt != ref.rcvNxt || r.goodBytes != ref.good {
				t.Fatalf("op %d: rcvNxt/good %d/%d, reference %d/%d",
					i/2, r.rcvNxt, r.goodBytes, ref.rcvNxt, ref.good)
			}
			if len(r.ooo) != len(ref.ooo) {
				t.Fatalf("op %d: ooo %v, reference %v", i/2, r.ooo, ref.ooo)
			}
			for k := range r.ooo {
				if r.ooo[k] != ref.ooo[k] {
					t.Fatalf("op %d: ooo %v, reference %v", i/2, r.ooo, ref.ooo)
				}
			}
		}
	})
}

// TestReceiverOOOCapacityStable runs 10k loss episodes — three holes open,
// fill in reverse order, then the stream catches up — and requires that the
// out-of-order list keeps one small backing array throughout: no sort
// scratch per out-of-order packet, and no capacity bled off the front that
// the next episode would have to grow back.
func TestReceiverOOOCapacityStable(t *testing.T) {
	const unit = 1448
	var r Receiver
	episode := func() {
		base := r.rcvNxt
		for _, k := range []int64{6, 4, 2} {
			r.insertOOO(seg.SackBlock{Start: base + k*unit, End: base + (k+1)*unit})
		}
		r.insertOOO(seg.SackBlock{Start: base + 4*unit, End: base + 5*unit}) // duplicate
		r.insertOOO(seg.SackBlock{Start: base + 3*unit, End: base + 4*unit}) // bridges 2..5
		r.rcvNxt = base + 2*unit
		r.mergeContiguous()
		r.rcvNxt += unit // the one remaining hole, 5..6, fills
		r.mergeContiguous()
		if len(r.ooo) != 0 || r.rcvNxt != base+7*unit {
			t.Fatalf("episode left ooo=%v rcvNxt=%d (base %d)", r.ooo, r.rcvNxt, base)
		}
	}
	episode()
	warm := cap(r.ooo)
	if warm > 8 {
		t.Fatalf("three holes grew the list to cap %d", warm)
	}
	if allocs := testing.AllocsPerRun(10_000, episode); allocs != 0 {
		t.Errorf("%.2f allocations per loss episode, want 0", allocs)
	}
	if cap(r.ooo) != warm {
		t.Errorf("cap(ooo) moved from %d to %d over 10k episodes", warm, cap(r.ooo))
	}
}
