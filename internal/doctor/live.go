package doctor

import (
	"math"

	"dive/internal/obs"
)

// Live following: incremental diagnosis of a journal that is still being
// written. A Follower consumes successive snapshots of the journal ring
// (from /debug/journal polls), feeds the new records through the streaming
// detectors, and surfaces findings as they become final — while the run is
// still going, not after it.

// settleFrames is how many of the newest journal frames a follower holds
// back before analysis. Journal records are amended after they are
// appended — transport feedback (acks, realized bandwidth) and outage/MOT
// verdicts land one to a few frames later — so analyzing a record the
// moment it appears would see zeroed amendment fields and mis-diagnose.
const settleFrames = 8

// Follower incrementally diagnoses a live decision journal. Feed it
// snapshots (oldest-first, frame numbers increasing, as /debug/journal
// serves them) via Ingest; it consumes each record exactly once, holding
// back the newest settleFrames frames until they have had time to be
// amended. Not goroutine-safe.
type Follower struct {
	dets []Detector[obs.JournalRecord]

	started  bool
	next     int // first frame not yet consumed
	consumed int
}

// NewFollower builds a journal follower, outageRun as in NewDetectors.
func NewFollower(outageRun int) *Follower {
	return &Follower{dets: NewDetectors(outageRun)}
}

// Checks returns the detector names, in canonical order.
func (f *Follower) Checks() []string {
	out := make([]string, len(f.dets))
	for i, d := range f.dets {
		out[i] = d.Name()
	}
	return out
}

// Consumed returns how many records have been consumed.
func (f *Follower) Consumed() int { return f.consumed }

// Ingest consumes the not-yet-seen, settled prefix of a snapshot and returns
// the findings that became final. Records already consumed (frame below the
// follower's cursor) are skipped, so overlapping snapshots are fine; records
// within the settle margin of the snapshot's newest frame are deferred to a
// later Ingest or Close.
func (f *Follower) Ingest(snapshot []obs.JournalRecord) []Finding {
	if len(snapshot) == 0 {
		return nil
	}
	return f.observe(snapshot, snapshot[len(snapshot)-1].Frame-settleFrames)
}

// observe feeds the unseen records with frame <= limit to every detector.
func (f *Follower) observe(snapshot []obs.JournalRecord, limit int) []Finding {
	var out []Finding
	for _, rec := range snapshot {
		if f.started && rec.Frame < f.next {
			continue
		}
		if rec.Frame > limit {
			break
		}
		f.started, f.next = true, rec.Frame+1
		f.consumed++
		for _, d := range f.dets {
			out = append(out, d.Observe(rec)...)
		}
	}
	return out
}

// Close consumes the held-back tail of the final snapshot (ignoring the
// settle margin — the stream is over, nothing will amend further; nil when
// nothing was held back) and flushes every detector, returning the remaining
// findings. The follower must not be used afterwards.
func (f *Follower) Close(finalSnapshot []obs.JournalRecord) []Finding {
	out := f.observe(finalSnapshot, math.MaxInt)
	for _, d := range f.dets {
		out = append(out, d.Flush()...)
	}
	return out
}
