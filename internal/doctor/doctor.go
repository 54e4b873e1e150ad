// Package doctor is the automated trace analyzer behind cmd/divedoctor: it
// ingests the decision journal the obs layer exports and diagnoses known
// DiVE pathologies — rate-control oscillation, systematic
// bandwidth mis-estimation, foreground-segmentation collapse during turns,
// stale-MOT drift across long outages, reconnect storms whose backoff
// collapsed and degradation ladders that stay down after the link healed —
// and, from their own inputs, fleet stragglers and GC pressure. Findings
// are machine-readable so CI can gate on them. Allocations are not
// diagnosed here: each package's AllocsPerRun tests hold them.
package doctor

import (
	"sort"

	"dive/internal/obs"
)

// Severity ranks a finding. CI gates treat both as failures; Warn marks
// diagnoses that may be environmental (e.g. a GC pause tail growing with
// fleet size on a loaded machine).
type Severity string

const (
	Warn Severity = "warn"
	Fail Severity = "fail"
)

// Finding is one diagnosed pathology, anchored to the frame range that
// exhibits it.
type Finding struct {
	// Check names the detector that fired (e.g. "qp-oscillation").
	Check      string   `json:"check"`
	Severity   Severity `json:"severity"`
	FirstFrame int      `json:"first_frame"`
	LastFrame  int      `json:"last_frame"`
	// Value is the measured statistic, Threshold the limit it violated.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`
}

// Report is a diagnosis: of one recorded run, or of a live one followed to
// its end (divedoctor -follow). Frames counts the records diagnosed — journal
// frames, or rollups when only a fleet series was analyzed.
type Report struct {
	Frames   int       `json:"frames"`
	Checks   []string  `json:"checks_run"`
	Findings []Finding `json:"findings"`
}

// Healthy reports whether the diagnosis found nothing.
func (r *Report) Healthy() bool { return len(r.Findings) == 0 }

// Detector is one incremental pathology check over a stream of records R:
// the decision journal (obs.JournalRecord, in frame order) or the fleet
// rollup series (obs.FleetRollup, in tick order). Observe folds in the next
// record and returns any findings that became final: those that depend only
// on a bounded suffix of the stream (runs, alternations, windows) as soon as
// the run provably ended, whole-stream aggregates (bandwidth bias) at Flush.
// Flush ends the stream, returning findings whose runs were still open, and
// resets the detector for a new one. Batch analysis (analyze) and live
// following (Follower: divedoctor -follow) feed the same
// detectors, so they produce identical findings for identical input. Each
// detector's thresholds are the constants declared next to it; the only one
// any caller ever tunes is the outage-drift run length (NewDetectors).
type Detector[R any] interface {
	// Name is the check name findings carry (e.g. "qp-oscillation").
	Name() string
	Observe(rec R) []Finding
	Flush() []Finding
}

// analyze is the batch wrapper: it feeds a whole recorded stream through
// each detector's Observe/Flush and orders the findings by first frame (by
// detector within a frame).
func analyze[R any](dets []Detector[R], recs []R) *Report {
	rep := &Report{Frames: len(recs)}
	for _, d := range dets {
		rep.Checks = append(rep.Checks, d.Name())
		for _, rec := range recs {
			rep.Findings = append(rep.Findings, d.Observe(rec)...)
		}
		rep.Findings = append(rep.Findings, d.Flush()...)
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].FirstFrame < rep.Findings[j].FirstFrame
	})
	return rep
}

// Analyze diagnoses a run from its decision journal; outageRun as in
// NewDetectors.
func Analyze(journal []obs.JournalRecord, outageRun int) *Report {
	return analyze(NewDetectors(outageRun), journal)
}

// AnalyzeFleet diagnoses a recorded rollup series (divedoctor -fleet).
// Findings anchor FirstFrame/LastFrame to rollup ticks, not journal frames.
func AnalyzeFleet(rollups []obs.FleetRollup) *Report {
	return analyze(NewFleetDetectors(), rollups)
}
