// Package chaos fuzzes the simulated testbed with randomized — but
// valid-by-construction — scenario specs. Every generated spec runs under
// the sim-wide invariant checker plus per-point budgets (event count,
// virtual-time stall watchdog, wall deadline, pool high-water cap). Any
// violation, panic or budget blowout is shrunk by delta-debugging to a
// minimal spec with the same failure signature and written to a corpus
// entry that carries an exact one-command repro line and replays forever
// under `go test ./internal/chaos`.
package chaos

import (
	"fmt"
	"time"

	"mobbr/internal/core"
)

// The budgets every chaos point runs under. A run that exceeds a budget is
// a finding (the sim should finish any valid sub-second scenario well inside
// them), classified by which budget tripped.
const (
	// maxEvents caps simulator events per run.
	maxEvents = 50_000_000
	// maxStall caps consecutive events at one virtual instant.
	maxStall = 2_000_000
	// wallBudget is the per-run wall-clock deadline. Wall findings are
	// machine-dependent — the explorer reports them unshrunk.
	wallBudget = 30 * time.Second
)

// Budgets holds the budget a test may tighten to reach its path quickly.
type Budgets struct {
	// MaxPoolOutstanding caps the packet+ACK pool high-water mark
	// (0 = 200k objects). A blowout means queue growth the drop-tail
	// path should have bounded.
	MaxPoolOutstanding int
}

func (b Budgets) withDefaults() Budgets {
	if b.MaxPoolOutstanding == 0 {
		b.MaxPoolOutstanding = 200_000
	}
	return b
}

// FailPoolBudget classifies a run whose pool high-water mark exceeded
// Budgets.MaxPoolOutstanding; it extends the core.Fail* classes.
const FailPoolBudget = "budget-pool"

// Outcome is one chaos run's result.
type Outcome struct {
	// OK means the run completed inside every budget with no violation.
	OK bool
	// Class is the failure class (core.Fail* or FailPoolBudget).
	Class string
	// Rule is the invariant rule for violations ("" otherwise).
	Rule string
	// Msg is the failure text; it always contains a repro line.
	Msg string
}

// Signature keys an outcome for dedup and shrink preservation: shrinking
// accepts a candidate only if it fails with the same signature.
func (o Outcome) Signature() string {
	if o.OK {
		return "ok"
	}
	if o.Rule != "" {
		return o.Class + "/" + o.Rule
	}
	return o.Class
}

// Run executes one spec under the budgets with the invariant checker armed
// and panics contained. The spec's own limits win when tighter; otherwise
// the budgets apply.
func Run(spec core.Spec, b Budgets) (o Outcome) {
	b = b.withDefaults()
	spec.Check = true
	if spec.MaxEvents == 0 || spec.MaxEvents > maxEvents {
		spec.MaxEvents = maxEvents
	}
	if spec.MaxStall == 0 || spec.MaxStall > maxStall {
		spec.MaxStall = maxStall
	}
	if spec.MaxWallClock <= 0 || spec.MaxWallClock > wallBudget {
		spec.MaxWallClock = wallBudget
	}
	defer func() {
		if r := recover(); r != nil {
			o = Outcome{
				Class: core.FailPanic,
				Msg:   fmt.Sprintf("panic: %v\nrepro: %s", r, core.ReproLine(spec)),
			}
		}
	}()
	res, err := core.Run(spec)
	if err != nil {
		class, rule := core.ClassifyFailure(err)
		return Outcome{Class: class, Rule: rule, Msg: err.Error()}
	}
	hw := res.Report.Pool.MaxOutstandingPackets + res.Report.Pool.MaxOutstandingAcks
	if hw > b.MaxPoolOutstanding {
		return Outcome{
			Class: FailPoolBudget,
			Msg: fmt.Sprintf("pool high-water %d objects exceeds budget %d\nrepro: %s",
				hw, b.MaxPoolOutstanding, core.ReproLine(spec)),
		}
	}
	return Outcome{OK: true}
}
