// Run archiving: the grid runner's finished rows written as an obs run
// archive — manifest plus one strictly-versioned artifact per grid
// point — for rollup, live comparison, and `mobbr diff` regression gating.
// Archives are written wholly after the run from the final rows, so a
// journal-resumed grid archives byte-identically to an uninterrupted one
// (modulo the manifest's wall-clock field and digests, which need the
// in-memory telemetry sample journal resumes no longer have).
package repro

import (
	"fmt"
	"time"

	"mobbr/internal/core"
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
// run (the -rollup view uses it without writing anything). Points carry the
// exact defaulted spec (core.EncodeSpec), the measured row, the
// deterministic engine event total, and — when the row still holds an
// in-memory metrics sample — the per-instrument histogram digest. rows are
// RunExperimentResilient's, one per point.
func BuildExperimentRun(e Experiment, rows []Row, o ArchiveOpts) (*obs.Run, error) {
	pts := make([]obs.PointRecord, len(rows))
	dur := o.Dur
	var events uint64
	for i, r := range rows {
		ps := pointSpec(e.Points[i], o.Dur, o.Telemetry)
		spec, err := core.EncodeSpec(ps)
		if err != nil {
			return nil, fmt.Errorf("repro: archive %s/%s: %w", e.ID, e.Points[i].Label, err)
		}
		dur = ps.Duration // the point's own when it pins one
		rec := obs.PointRecord{
			I: i, Label: e.Points[i].Label, Spec: spec,
			Metrics: r.Metrics, Events: r.Events, Failure: r.Failure,
		}
		if r.Sample != nil {
			if r.Sample.Report != nil && r.Sample.Report.Metrics != nil {
				rec.Digest, rec.DigestSkipped = obs.DigestSnapshot(r.Sample.Report.Metrics)
			}
			if r.Sample.Engine != nil {
				rec.MaxPending = r.Sample.Engine.MaxPending
			}
		}
		events += r.Events
		pts[i] = rec
	}
	m := obs.Manifest{
		Exp: e.ID, Title: e.Title, Points: len(pts), Seeds: o.Seeds, Dur: dur.String(),
		Trace: o.Telemetry.Trace, Metrics: o.Telemetry.Metrics, Profile: o.Telemetry.Profile,
		Flags: o.Flags, Git: obs.GitDescribe(), WallMs: float64(o.Wall) / 1e6,
		Events: events,
	}
	return &obs.Run{Manifest: m, Points: pts}, nil
}
