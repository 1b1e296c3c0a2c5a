// Package obs is the grid-level observability layer: run archives,
// cross-run aggregation, live progress, and the regression differ.
//
// PR 2's internal/telemetry observes one run from the inside (event bus,
// per-conn histograms, cycle profiler); obs observes the *grid* from the
// outside. Every experiment invocation can write a structured run archive —
// a manifest plus one artifact per grid point in a strict, versioned JSON
// codec — which downstream tools aggregate into per-cell
// (device×CPU×CC×network) rollups with percentile extraction, watch live
// via a wall-clock progress reporter, and compare across runs with
// noise-aware regression gating (`mobbr diff`).
//
// Layout of a run archive root:
//
//	runA/
//	  fig2/
//	    manifest.json      # grid description: spec matrix size, seeds, flags
//	    points/000.json    # one artifact per grid point, strictly versioned
//	    points/001.json
//	  recovery/
//	    ...
//
// Per-point artifacts contain only deterministic fields (measurements,
// spec JSON, contained failures, engine event totals, histogram digests).
// The grid runner builds each point's record once, when the point
// finishes, and its checkpoint journal line is that record, so a
// journal-resumed grid archives byte-identically to an uninterrupted one.
// Wall-clock timing lives in the manifest only.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mobbr/internal/telemetry"
)

// Version guards the archive codec. Readers reject other versions loudly
// instead of misinterpreting fields.
const Version = 1

// Manifest describes one archived experiment run.
type Manifest struct {
	// V is the codec version (Version).
	V int `json:"v"`
	// Exp is the experiment id ("fig2", "recovery", "trace", ...).
	Exp string `json:"exp"`
	// Title is the experiment's human description.
	Title string `json:"title,omitempty"`
	// Points is the grid size; points/ must hold exactly this many files.
	Points int `json:"points"`
	// Seeds is the per-point seed count.
	Seeds int `json:"seeds"`
	// Dur is the simulated duration per run (Go duration string).
	Dur string `json:"dur"`
	// Trace/Metrics/Profile record the telemetry flag set of the run.
	Trace   bool `json:"trace,omitempty"`
	Metrics bool `json:"metrics,omitempty"`
	Profile bool `json:"profile,omitempty"`
	// Flags carries any extra invocation knobs worth recording (e.g. a
	// deliberate -force-stride perturbation). Keys render sorted.
	Flags map[string]string `json:"flags,omitempty"`
	// Git is `git describe --always --dirty` at archive time ("" when
	// unavailable).
	Git string `json:"git,omitempty"`
	// WallMs is the wall-clock time the grid took, in milliseconds. It is
	// the manifest's only nondeterministic field; per-point artifacts carry
	// none.
	WallMs float64 `json:"wall_ms,omitempty"`
	// Events is the total simulator events executed across the grid
	// (deterministic; the engine-level "CPU" of the run).
	Events uint64 `json:"events,omitempty"`
}

// Metrics is the measured outcome of one grid point — the union of the
// fields the standard, recovery and trace experiments report, with
// omitempty on the experiment-specific ones. PointRecord embeds it, so the
// table printers, the checkpoint journal and the archive all read one
// struct. Go's float64 round-trips exactly through encoding/json, so a
// journal-resumed row prints byte-identically to the original.
type Metrics struct {
	// GoodputMbps and GoodputCI are the seed-mean and 95% CI half-width
	// (recovery points: of the pre-fault goodput over [warmup, fault start)).
	GoodputMbps float64 `json:"goodput_mbps"`
	GoodputCI   float64 `json:"goodput_ci,omitempty"`
	// RTTms is the mean sampled smoothed RTT; MinRTTms the mean minimum RTT.
	RTTms    float64 `json:"rtt_ms,omitempty"`
	MinRTTms float64 `json:"min_rtt_ms,omitempty"`
	// Retransmits is the seed-mean total retransmissions.
	Retransmits float64 `json:"retransmits,omitempty"`
	// SKBKbits is the mean socket-buffer (skb) length per pacing period in
	// kilobits, as Table 2 reports it; IdleMs the mean pacing idle time per
	// period; ExpectedMbps Table 2's expected throughput skb×conns/idle.
	SKBKbits     float64 `json:"skb_kbits,omitempty"`
	IdleMs       float64 `json:"idle_ms,omitempty"`
	ExpectedMbps float64 `json:"expected_mbps,omitempty"`
	// MaxBufKB is the peak total socket-buffer occupancy in KB (§7.1.1).
	MaxBufKB float64 `json:"max_buf_kb,omitempty"`
	// CPUUtil is the netstack CPU busy fraction.
	CPUUtil float64 `json:"cpu_util,omitempty"`
	// Jain is the mean Jain fairness index of per-connection goodputs.
	Jain float64 `json:"jain,omitempty"`
	// PacingShare is the pacing-timer fraction of netstack-core cycles from
	// the cycle profiler — the §6.1 per-event-overhead signal. Profiled
	// records whether the point's runs carried a cycle profile at all, so a
	// resumed or reloaded grid renders the same columns.
	PacingShare float64 `json:"pacing_share,omitempty"`
	Profiled    bool    `json:"profiled,omitempty"`
	// AppKind through RebufferPct are the application-workload grid's
	// metrics ("apps"): the workload name ("" for bulk iperf points),
	// operations completed across the point's seeds, request-latency
	// percentiles over every completed operation, and the streaming
	// workload's stall share of playback time. Bulk points omit them all.
	AppKind     string  `json:"app_kind,omitempty"`
	Requests    int64   `json:"requests,omitempty"`
	LatP50ms    float64 `json:"lat_p50_ms,omitempty"`
	LatP90ms    float64 `json:"lat_p90_ms,omitempty"`
	LatP99ms    float64 `json:"lat_p99_ms,omitempty"`
	RebufferPct float64 `json:"rebuffer_pct,omitempty"`
	// FlowsStarted through FastPathShare are the flow-churn grid's metrics
	// ("scale", Spec.Flows): flows admitted and completed across the
	// point's seeds, peak concurrency, flow-completion-time percentiles
	// pooled over every completed flow, and the fast-path share of
	// flow-table lookups. FlowsStarted > 0 marks a flows point; non-churn
	// points omit them all.
	FlowsStarted   int64   `json:"flows_started,omitempty"`
	FlowsCompleted int64   `json:"flows_completed,omitempty"`
	FlowsPeakLive  int     `json:"flows_peak_live,omitempty"`
	FCTP50ms       float64 `json:"fct_p50_ms,omitempty"`
	FCTP99ms       float64 `json:"fct_p99_ms,omitempty"`
	FastPathShare  float64 `json:"fast_path_share,omitempty"`
	// RecoveryMs is the recovery experiment's seed-mean time from link
	// return to the first reporting interval at ≥ 90% of the pre-fault
	// goodput (censored at run end for seeds that never recover),
	// RecoveryCI its 95% CI half-width, and Recovered how many of the seeds
	// regained 90% before run end.
	RecoveryMs float64 `json:"recovery_ms,omitempty"`
	RecoveryCI float64 `json:"recovery_ci,omitempty"`
	Recovered  int     `json:"recovered,omitempty"`
	// SpuriousRTOs is the seed-mean count of F-RTO-detected spurious
	// timeouts (expected after a blackout's first ACK returns).
	SpuriousRTOs float64 `json:"spurious_rtos,omitempty"`
}

// Failure records one contained point failure of the grid runner.
type Failure struct {
	// Class is the core failure class (core.FailPanic, core.FailViolation,
	// core.FailMaxEvents, core.FailWallClock, core.FailStall,
	// core.FailError).
	Class string `json:"class"`
	// Rule is the first violated invariant rule (violation class only).
	Rule string `json:"rule,omitempty"`
	// Msg is the failure text.
	Msg string `json:"msg"`
	// Repro is the one-command reproduction line (spec JSON + seed).
	Repro string `json:"repro,omitempty"`
	// Attempts is how many times the point ran (>1 only after infra
	// retries).
	Attempts int `json:"attempts,omitempty"`
}

// HistDigest is one instrument's merged histogram across the point's
// connections, with the rollup percentiles pre-extracted.
type HistDigest struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Segment summarizes one trace segment for one trace-replay point; which
// segment is positional (the spec's Mobility.Segments).
type Segment struct {
	// GoodputMbps is the seed-mean goodput across the segment's intervals.
	GoodputMbps float64 `json:"goodput_mbps"`
	// RTTms is the seed-mean smoothed RTT across the segment's intervals.
	RTTms float64 `json:"rtt_ms"`
	// Retransmits is the seed-mean retransmission count in the segment.
	Retransmits float64 `json:"retransmits"`
}

// PointRecord is the per-grid-point artifact, and the grid runner's
// checkpoint journal line (in compact form) for the same point.
type PointRecord struct {
	// V is the codec version (Version).
	V int `json:"v"`
	// I is the point's grid index; the file name is %03d.json of it.
	I int `json:"i"`
	// Label names the cell within its experiment.
	Label string `json:"label"`
	// Spec is the point's exact defaulted spec in core.EncodeSpec form —
	// the same bytes a repro line carries — and the identity `mobbr diff`
	// aligns on (modulo deliberate knob perturbations).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Metrics is the measured outcome (zero when Failure is set).
	Metrics `json:"metrics"`
	// Events is the simulator events executed for this point across its
	// seeds (deterministic).
	Events uint64 `json:"events,omitempty"`
	// Segments is the per-segment breakdown of a trace-replay point,
	// parallel to the spec's Mobility.Segments; nil for every other point.
	Segments []Segment `json:"segments,omitempty"`
	// MaxPending is the engine queue high-water mark of the last seed when
	// engine self-metrics were collected (deterministic). Stopped timers
	// awaiting reclaim count; rescheduled ones count once.
	MaxPending int `json:"max_pending,omitempty"`
	// Failure is the contained failure class/rule/repro, if the point
	// failed under the resilient runner.
	Failure *Failure `json:"failure,omitempty"`
	// Digest holds the point's telemetry histogram digest (last seed),
	// keyed by instrument, when metrics telemetry was enabled. It is folded
	// when the point finishes, so a journal-resumed point carries it too.
	Digest map[string]HistDigest `json:"digest,omitempty"`
	// DigestSkipped counts histograms dropped from Digest because their
	// bucket bounds did not match their instrument's.
	DigestSkipped int `json:"digest_skipped,omitempty"`
}

// Run is one loaded experiment archive.
type Run struct {
	Manifest Manifest
	Points   []PointRecord
}

// pointFile names the i-th artifact.
func pointFile(i int) string { return fmt.Sprintf("%03d.json", i) }

// WriteRun writes (or atomically replaces) one experiment's archive
// directory: manifest.json plus points/NNN.json, each stamped with the
// codec Version. Any stale points/ content from a previous,
// differently-shaped run is removed first, so re-archiving never orphans
// artifacts.
func WriteRun(dir string, m Manifest, points []PointRecord) error {
	if m.Points != len(points) {
		return fmt.Errorf("obs: manifest declares %d points, got %d records", m.Points, len(points))
	}
	pdir := filepath.Join(dir, "points")
	err := os.RemoveAll(pdir)
	if err == nil {
		err = os.MkdirAll(pdir, 0o755)
	}
	for i := 0; err == nil && i < len(points); i++ {
		p := points[i]
		if p.I != i {
			return fmt.Errorf("obs: point record %d carries index %d", i, p.I)
		}
		p.V = Version
		err = writeJSON(filepath.Join(pdir, pointFile(i)), p)
	}
	if err == nil {
		m.V = Version
		err = writeJSON(filepath.Join(dir, "manifest.json"), m)
	}
	if err != nil {
		return fmt.Errorf("obs: writing %s: %w", dir, err)
	}
	return nil
}

// writeJSON writes v to path as indented JSON and a final newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	return err
}

// LoadRun reads one experiment archive directory strictly: unknown fields,
// version drift, missing or surplus point files are errors.
func LoadRun(dir string) (*Run, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	var m Manifest
	if err := strictUnmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s/manifest.json: %w", dir, err)
	}
	if m.V != Version {
		return nil, fmt.Errorf("obs: %s: archive version %d, this tool reads %d", dir, m.V, Version)
	}
	pdir := filepath.Join(dir, "points")
	entries, err := os.ReadDir(pdir)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if len(entries) != m.Points {
		return nil, fmt.Errorf("obs: %s: manifest declares %d points but points/ holds %d files", dir, m.Points, len(entries))
	}
	r := &Run{Manifest: m, Points: make([]PointRecord, m.Points)}
	for i := 0; i < m.Points; i++ {
		data, err := os.ReadFile(filepath.Join(pdir, pointFile(i)))
		if err != nil {
			return nil, fmt.Errorf("obs: %w", err)
		}
		var p PointRecord
		if err := strictUnmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("obs: %s/points/%s: %w", dir, pointFile(i), err)
		}
		if p.V != Version {
			return nil, fmt.Errorf("obs: %s/points/%s: version %d, this tool reads %d", dir, pointFile(i), p.V, Version)
		}
		if p.I != i {
			return nil, fmt.Errorf("obs: %s/points/%s: carries index %d", dir, pointFile(i), p.I)
		}
		r.Points[i] = p
	}
	return r, nil
}

// Archive is a loaded run-archive root: one Run per experiment
// subdirectory (or a single Run when the root itself is one).
type Archive struct {
	// Runs maps experiment id to its archive.
	Runs map[string]*Run
	// Order lists experiment ids in sorted order for deterministic output.
	Order []string
}

// LoadArchive loads every experiment run under root. A root that is itself
// a run directory (holds manifest.json) loads as a single-experiment
// archive.
func LoadArchive(root string) (*Archive, error) {
	a := &Archive{Runs: map[string]*Run{}}
	if _, err := os.Stat(filepath.Join(root, "manifest.json")); err == nil {
		r, err := LoadRun(root)
		if err != nil {
			return nil, err
		}
		a.Runs[r.Manifest.Exp] = r
		a.Order = []string{r.Manifest.Exp}
		return a, nil
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(sub, "manifest.json")); err != nil {
			continue
		}
		r, err := LoadRun(sub)
		if err != nil {
			return nil, err
		}
		if r.Manifest.Exp != e.Name() {
			return nil, fmt.Errorf("obs: %s: manifest says experiment %q", sub, r.Manifest.Exp)
		}
		a.Runs[r.Manifest.Exp] = r
	}
	if len(a.Runs) == 0 {
		return nil, fmt.Errorf("obs: %s holds no run archives (no manifest.json anywhere)", root)
	}
	for id := range a.Runs {
		a.Order = append(a.Order, id)
	}
	sort.Strings(a.Order)
	return a, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, so a drifted
// archive fails loudly instead of silently dropping data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// GitDescribe returns `git describe --always --dirty` of the working tree,
// or "" when git or the repository is unavailable. Archive metadata only —
// never part of point identity. Resolved once per process: a grid run
// stamps one manifest per experiment and must not fork git for each.
func GitDescribe() string { return gitDescribe() }

var gitDescribe = sync.OnceValue(func() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
})

// DigestSnapshot converts a run's telemetry registry snapshot into the
// archive digest: per-connection histograms merged by instrument with the
// rollup percentiles extracted at write time. The skip count reports
// histograms dropped for mismatched bucket bounds.
func DigestSnapshot(s *telemetry.Snapshot) (map[string]HistDigest, int) {
	merged, skipped := s.HistogramDigest()
	out := make(map[string]HistDigest, len(merged))
	for name, h := range merged {
		if h.Count == 0 {
			// Empty histograms carry ±Inf min/max sentinels, which JSON
			// cannot encode — and say nothing worth archiving.
			continue
		}
		out[name] = HistDigest{
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Bounds: h.Bounds, Counts: h.Counts,
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		}
	}
	if len(out) == 0 {
		return nil, skipped
	}
	return out, skipped
}

// Snapshot re-expresses the digest as a telemetry snapshot for merging
// across points (rollups).
func (d HistDigest) Snapshot() telemetry.HistogramSnapshot {
	return telemetry.HistogramSnapshot{Count: d.Count, Sum: d.Sum, Min: d.Min, Max: d.Max,
		Bounds: d.Bounds, Counts: d.Counts}
}
