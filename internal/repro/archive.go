// Run archiving: the grid runner's finished rows written as an obs run
// archive — manifest plus one strictly-versioned artifact per grid
// point — for rollup, live comparison, and `mobbr diff` regression gating.
// Each point's artifact is the record the runner built when the point
// finished and journaled, so a journal-resumed grid archives
// byte-identically to an uninterrupted one (modulo the manifest's
// wall-clock and git fields).
package repro

import (
	"time"

	"mobbr/internal/obs"
	"mobbr/internal/telemetry"
)

// ArchiveOpts describes the run being archived.
type ArchiveOpts struct {
	// Dur and Seeds echo the run configuration into the manifest (points
	// that pin their own duration, as recovery and trace do, override Dur).
	Dur   time.Duration
	Seeds int
	// Telemetry records the flag set the run used.
	Telemetry telemetry.Config
	// Flags carries extra invocation knobs worth recording (e.g. a
	// deliberate -force-stride perturbation).
	Flags map[string]string
	// Wall is the grid's wall-clock time (manifest only, never in points).
	Wall time.Duration
}

// BuildExperimentRun assembles an experiment's rows into an in-memory obs
// run (the -rollup view uses it without writing anything): each row's
// record as built by the runner, plus a manifest. rows are
// RunExperimentResilient's, one per point.
func BuildExperimentRun(e Experiment, rows []Row, o ArchiveOpts) (*obs.Run, error) {
	pts := make([]obs.PointRecord, len(rows))
	dur := o.Dur
	var events uint64
	for i, r := range rows {
		pts[i] = r.PointRecord
		events += r.Events
		dur = pointSpec(e.Points[i], o.Dur, o.Telemetry).Duration // the point's own when it pins one
	}
	m := obs.Manifest{
		Exp: e.ID, Title: e.Title, Points: len(pts), Seeds: o.Seeds, Dur: dur.String(),
		Trace: o.Telemetry.Trace, Metrics: o.Telemetry.Metrics, Profile: o.Telemetry.Profile,
		Flags: o.Flags, Git: obs.GitDescribe(), WallMs: float64(o.Wall) / 1e6,
		Events: events,
	}
	return &obs.Run{Manifest: m, Points: pts}, nil
}
