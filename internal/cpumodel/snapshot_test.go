package cpumodel

import (
	"testing"
	"time"

	"mobbr/internal/sim"
)

func TestSnapshotAllOps(t *testing.T) {
	eng := sim.New(1)
	cpu := NewCPU(eng, DefaultCosts(), 1e9)
	cpu.Submit(OpPacingTimer, cpu.Costs().Of(OpPacingTimer), nil)
	cpu.Submit(OpSegXmit, cpu.Costs().Of(OpSegXmit), nil)
	cpu.Submit(OpSegXmit, cpu.Costs().Of(OpSegXmit), nil)
	eng.Run(time.Second)

	s := cpu.Snapshot()
	if len(s.Ops) != int(numOps) {
		t.Fatalf("ops = %d, want %d (every op, including zeros)", len(s.Ops), numOps)
	}
	byName := map[string]OpStat{}
	for i, st := range s.Ops {
		if st.Op != Op(i) {
			t.Errorf("ops out of Op order at %d: %v", i, st.Op)
		}
		byName[st.Name] = st
	}
	if st := byName["seg_xmit"]; st.Count != 2 || st.Cycles != 2*DefaultCosts().SegXmit {
		t.Errorf("seg_xmit = %+v", st)
	}
	if st := byName["pacing_timer"]; st.Count != 1 {
		t.Errorf("pacing_timer = %+v", st)
	}
	if st := byName["rto"]; st.Count != 0 || st.Cycles != 0 {
		t.Errorf("unused op should be zero: %+v", st)
	}
	want := 2*DefaultCosts().SegXmit + DefaultCosts().PacingTimer
	if s.TotalCycles != want {
		t.Errorf("total cycles = %v, want %v", s.TotalCycles, want)
	}
	if s.Speed != 1e9 || s.Pressure != 1 {
		t.Errorf("speed/pressure = %v/%v", s.Speed, s.Pressure)
	}

	bd := s.Breakdown()
	var sum float64
	for _, f := range bd {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown fractions sum to %v, want 1", sum)
	}
	if bd["seg_xmit"] != 2*DefaultCosts().SegXmit/want {
		t.Errorf("seg_xmit share = %v", bd["seg_xmit"])
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
	cpu.Submit(OpRTO, cpu.Costs().Of(OpRTO), nil)
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
	cpu.Submit(OpSegXmit, cpu.Costs().Of(OpSegXmit), nil)
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
