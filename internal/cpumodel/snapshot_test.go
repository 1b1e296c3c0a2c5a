package cpumodel

import (
	"testing"
	"time"

	"mobbr/internal/sim"
)

// TestSnapshotAllOps reads the accounting of every op in Op order: charged
// ops hold their cycles, the rest hold zero, and Breakdown's shares come
// from the same totals.
func TestSnapshotAllOps(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e9)
	cpu.Submit(OpPacingTimer, cpu.Costs().PacingTimer, nil)
	cpu.Submit(OpSegXmit, cpu.Costs().SegXmit, nil)
	cpu.Submit(OpSegXmit, cpu.Costs().SegXmit, nil)
	eng.Run(time.Second)

	want := map[Op]float64{
		OpSegXmit:     2 * DefaultCosts().SegXmit,
		OpPacingTimer: DefaultCosts().PacingTimer,
	}
	var total float64
	for op := Op(0); op < numOps; op++ {
		if got := cpu.OpCycles(op); got != want[op] {
			t.Errorf("OpCycles(%v) = %v, want %v", op, got, want[op])
		}
		total += cpu.OpCycles(op)
	}
	if w := want[OpSegXmit] + want[OpPacingTimer]; total != w {
		t.Errorf("total cycles = %v, want %v", total, w)
	}
	bd := cpu.Breakdown()
	if len(bd) != len(want) {
		t.Errorf("breakdown = %v, want only the %d charged ops", bd, len(want))
	}
	if bd["seg_xmit"] != want[OpSegXmit]/total {
		t.Errorf("seg_xmit share = %v, want %v", bd["seg_xmit"], want[OpSegXmit]/total)
	}
}

func TestObserverSeesEveryCharge(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e9)
	type charge struct {
		op     Op
		cycles float64
	}
	var seen []charge
	cpu.SetObserver(func(op Op, cycles float64) { seen = append(seen, charge{op, cycles}) })
	cpu.Submit(OpAckProcess, 123, nil)
	cpu.Submit(OpRTO, cpu.Costs().RTO, nil)
	if len(seen) != 2 {
		t.Fatalf("observer saw %d charges, want 2", len(seen))
	}
	if seen[0] != (charge{OpAckProcess, 123}) {
		t.Errorf("first charge = %+v", seen[0])
	}
	if seen[1].op != OpRTO || seen[1].cycles != DefaultCosts().RTO {
		t.Errorf("second charge = %+v", seen[1])
	}
	cpu.SetObserver(nil)
	cpu.Submit(OpSegXmit, cpu.Costs().SegXmit, nil)
	if len(seen) != 2 {
		t.Error("cleared observer still invoked")
	}
}

func TestSpeedListenerFiresOnChangeOnly(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 2e9)
	var olds, news []float64
	cpu.SetSpeedListener(func(old, new float64) {
		olds = append(olds, old)
		news = append(news, new)
	})
	cpu.SetSpeed(2e9) // no change → no event
	cpu.SetSpeed(1e9)
	cpu.SetSpeed(3e9)
	if len(news) != 2 {
		t.Fatalf("listener fired %d times, want 2", len(news))
	}
	if olds[0] != 2e9 || news[0] != 1e9 || olds[1] != 1e9 || news[1] != 3e9 {
		t.Errorf("transitions = %v → %v", olds, news)
	}
}
