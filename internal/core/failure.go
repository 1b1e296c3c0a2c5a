package core

import (
	"errors"

	"mobbr/internal/check"
	"mobbr/internal/sim"
	"mobbr/internal/telemetry"
)

// Failure classes. Every run failure maps to exactly one stable class; the
// resilient grid runner and the chaos harness use the class (plus the first
// violated invariant rule) as the failure signature for retry decisions,
// journal rows and shrink equivalence.
const (
	// FailPanic is a panic contained by a runner's per-point guard.
	FailPanic = "panic"
	// FailViolation is a structured invariant violation (check.Error).
	FailViolation = "violation"
	// FailMaxEvents is the simulator event budget tripping.
	FailMaxEvents = "limit-max-events"
	// FailWallClock is the real-time deadline tripping — the only class
	// that depends on machine load rather than on the spec.
	FailWallClock = "limit-wall-clock"
	// FailStall is the virtual-time progress watchdog tripping.
	FailStall = "limit-stall"
	// FailError is any other error (validation, construction).
	FailError = "error"
)

// RunError ties a run failure to the exact defaulted spec that produced it,
// so every layer up the call chain — grid runners, the chaos harness, the
// CLI — can print or journal a one-command reproduction without threading
// the spec separately. Error() appends the repro line to the cause.
type RunError struct {
	// Spec is the defaulted spec as Run executed it (exact seed included).
	Spec Spec
	// Err is the underlying failure.
	Err error
	// Events is the run's event log up to the failure, nil unless the
	// spec asked for a trace: a checker trip's violation events are in it.
	Events *telemetry.Bus
}

// Error implements error.
func (e *RunError) Error() string { return e.Err.Error() + "\nrepro: " + ReproLine(e.Spec) }

// Unwrap exposes the cause to errors.As/Is.
func (e *RunError) Unwrap() error { return e.Err }

// ClassifyFailure maps a Run error to its failure class, plus the first
// violated invariant rule when the class is FailViolation (the rule makes
// two different checker trips distinguishable signatures).
func ClassifyFailure(err error) (class, rule string) {
	if err == nil {
		return "", ""
	}
	var ce *check.Error
	if errors.As(err, &ce) {
		return FailViolation, ce.FirstRule()
	}
	var le *sim.LimitError
	if errors.As(err, &le) {
		switch le.Reason {
		case "max-events":
			return FailMaxEvents, ""
		case "wall-clock":
			return FailWallClock, ""
		case "stall":
			return FailStall, ""
		}
	}
	return FailError, ""
}

// InfraFailure reports whether a failure class reflects the machine rather
// than the spec: a loaded host can blow the wall deadline on a spec that is
// fine, so such failures are worth retrying. Everything else is
// deterministic per seed — retrying would reproduce it exactly.
func InfraFailure(class string) bool { return class == FailWallClock }
