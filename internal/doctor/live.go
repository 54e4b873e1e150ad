package doctor

import (
	"math"

	"dive/internal/obs"
)

// Live following: incremental diagnosis of a stream that is still being
// written. A Follower consumes successive snapshots of a ring (from
// /debug/journal or /debug/fleet polls), feeds the new records through the
// streaming detectors, and surfaces findings as they become final — while
// the run is still going, not after it.

// settleFrames is how many of the newest journal frames a journal follower
// holds back before analysis. Journal records are amended after they are
// appended — transport feedback (acks, realized bandwidth) and outage/MOT
// verdicts land one to a few frames later — so analyzing a record the
// moment it appears would see zeroed amendment fields and mis-diagnose.
const settleFrames = 8

// Follower incrementally diagnoses a live record stream. Feed it snapshots
// (oldest-first, cursor values increasing, as the /debug endpoints serve
// them) via Ingest; it consumes each record exactly once, holding back the
// newest settle cursor values until they have had time to be amended. Not
// goroutine-safe.
type Follower[R any] struct {
	dets   []Detector[R]
	cursor func(*R) int // the record's position in its stream: frame or tick
	settle int

	started  bool
	next     int // first cursor value not yet consumed
	consumed int
}

// NewFollower builds a journal follower: cursor on the frame number,
// outageRun as in NewDetectors, the newest settleFrames frames held back.
func NewFollower(outageRun int) *Follower[obs.JournalRecord] {
	return &Follower[obs.JournalRecord]{
		dets: NewDetectors(outageRun), settle: settleFrames,
		cursor: func(rec *obs.JournalRecord) int { return rec.Frame },
	}
}

// NewFleetFollower builds a follower of a rollup stream, as served by
// /debug/fleet: cursor on the tick and, rollups being immutable once
// emitted, no settle margin.
func NewFleetFollower() *Follower[obs.FleetRollup] {
	return &Follower[obs.FleetRollup]{
		dets:   NewFleetDetectors(),
		cursor: func(ru *obs.FleetRollup) int { return ru.Tick },
	}
}

// Checks returns the detector names, in canonical order.
func (f *Follower[R]) Checks() []string {
	out := make([]string, len(f.dets))
	for i, d := range f.dets {
		out[i] = d.Name()
	}
	return out
}

// Consumed returns how many records have been consumed.
func (f *Follower[R]) Consumed() int { return f.consumed }

// Ingest consumes the not-yet-seen, settled prefix of a snapshot and returns
// the findings that became final. Records already consumed (cursor below the
// follower's) are skipped, so overlapping snapshots are fine; records within
// the settle margin of the snapshot's newest one are deferred to a later
// Ingest or Close.
func (f *Follower[R]) Ingest(snapshot []R) []Finding {
	if len(snapshot) == 0 {
		return nil
	}
	return f.observe(snapshot, f.cursor(&snapshot[len(snapshot)-1])-f.settle)
}

// observe feeds the unseen records with cursor <= limit to every detector.
func (f *Follower[R]) observe(snapshot []R, limit int) []Finding {
	var out []Finding
	for i := range snapshot {
		at := f.cursor(&snapshot[i])
		if f.started && at < f.next {
			continue
		}
		if at > limit {
			break
		}
		f.started, f.next = true, at+1
		f.consumed++
		for _, d := range f.dets {
			out = append(out, d.Observe(snapshot[i])...)
		}
	}
	return out
}

// Close consumes the held-back tail of the final snapshot (ignoring the
// settle margin — the stream is over, nothing will amend further; nil when
// nothing was held back) and flushes every detector, returning the remaining
// findings. The follower must not be used afterwards.
func (f *Follower[R]) Close(finalSnapshot []R) []Finding {
	out := f.observe(finalSnapshot, math.MaxInt)
	for _, d := range f.dets {
		out = append(out, d.Flush()...)
	}
	return out
}
