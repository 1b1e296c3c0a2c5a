package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// cellKey identifies one attribution cell: which core ran which op during
// which run phase.
type cellKey struct {
	Core  string
	Phase string
	Op    string
}

// Profile attributes CPU cycles by op × core × phase. Phases partition the
// run around a fault window ("before"/"during"/"after") or cover it whole
// ("run"). Ops and cores are plain strings so the profiler stays decoupled
// from cpumodel's Op enum. All methods are safe on a nil receiver.
type Profile struct {
	phase string
	order []cellKey
	cells map[cellKey]float64
}

// NewProfile returns a profile in phase "run".
func NewProfile() *Profile {
	return &Profile{phase: "run", cells: make(map[cellKey]float64)}
}

// SetPhase switches the current phase label; subsequent Add calls attribute
// to it. core.Run drives this from the fault-schedule window.
func (p *Profile) SetPhase(name string) {
	if p == nil || name == "" {
		return
	}
	p.phase = name
}

// Add attributes cycles of op on core to the current phase.
func (p *Profile) Add(core, op string, cycles float64) {
	if p == nil {
		return
	}
	k := cellKey{Core: core, Phase: p.phase, Op: op}
	if _, ok := p.cells[k]; !ok {
		p.order = append(p.order, k)
	}
	p.cells[k] += cycles
}

// CoreTotal returns the cycles attributed to core across phases and ops.
func (p *Profile) CoreTotal(core string) float64 {
	if p == nil {
		return 0
	}
	var t float64
	for k, cy := range p.cells {
		if k.Core == core {
			t += cy
		}
	}
	return t
}

// Share returns op's fraction of core's total cycles across all phases —
// the number behind the paper's "pacing consumed X% of the netstack core".
func (p *Profile) Share(core, op string) float64 {
	if p == nil {
		return 0
	}
	total := p.CoreTotal(core)
	if total == 0 {
		return 0
	}
	var t float64
	for k, cy := range p.cells {
		if k.Core == core && k.Op == op {
			t += cy
		}
	}
	return t / total
}

// PhaseShare is Share restricted to one phase — how op's weight shifts
// before, during and after a fault window.
func (p *Profile) PhaseShare(core, phase, op string) float64 {
	if p == nil {
		return 0
	}
	var total, t float64
	for k, cy := range p.cells {
		if k.Core != core || k.Phase != phase {
			continue
		}
		total += cy
		if k.Op == op {
			t += cy
		}
	}
	if total == 0 {
		return 0
	}
	return t / total
}

// sortedCells returns the cells ordered core, then phase (first-seen), then
// descending cycles — stable and deterministic.
func (p *Profile) sortedCells() []cellKey {
	keys := append([]cellKey(nil), p.order...)
	phaseRank := make(map[string]int)
	for _, k := range p.order {
		if _, ok := phaseRank[k.Phase]; !ok {
			phaseRank[k.Phase] = len(phaseRank)
		}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		if a.Phase != b.Phase {
			return phaseRank[a.Phase] < phaseRank[b.Phase]
		}
		return p.cells[a] > p.cells[b]
	})
	return keys
}

// WriteTable renders the attribution as aligned text: one row per
// core × phase × op with cycles, the op's share of that core+phase, and the
// op's share of the core overall.
func (p *Profile) WriteTable(w io.Writer) error {
	if p == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-6s %-8s %-14s %16s %8s %8s\n",
		"core", "phase", "op", "cycles", "phase%", "core%"); err != nil {
		return err
	}
	coreTotal := make(map[string]float64)
	phaseTotal := make(map[[2]string]float64)
	for k, cy := range p.cells {
		coreTotal[k.Core] += cy
		phaseTotal[[2]string{k.Core, k.Phase}] += cy
	}
	for _, k := range p.sortedCells() {
		cy := p.cells[k]
		pt := phaseTotal[[2]string{k.Core, k.Phase}]
		ct := coreTotal[k.Core]
		var ps, cs float64
		if pt > 0 {
			ps = cy / pt * 100
		}
		if ct > 0 {
			cs = cy / ct * 100
		}
		if _, err := fmt.Fprintf(w, "%-6s %-8s %-14s %16.0f %7.1f%% %7.1f%%\n",
			k.Core, k.Phase, k.Op, cy, ps, cs); err != nil {
			return err
		}
	}
	return nil
}

// WriteFolded writes folded-stack lines ("core;phase;op cycles") consumable
// by standard flamegraph tooling (flamegraph.pl, inferno, speedscope).
func (p *Profile) WriteFolded(w io.Writer) error {
	if p == nil {
		return nil
	}
	for _, k := range p.sortedCells() {
		if _, err := fmt.Fprintf(w, "%s;%s;%s %.0f\n",
			k.Core, k.Phase, k.Op, p.cells[k]); err != nil {
			return err
		}
	}
	return nil
}
