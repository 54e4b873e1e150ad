package doctor

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"

	"dive/internal/obs"
)

// Live following: incremental diagnosis of a stream that is still being
// written. A Follower consumes successive snapshots of a ring (from
// /debug/journal or /debug/fleet polls, or the in-process ring itself),
// feeds the new records through the streaming detectors, and surfaces
// findings as they become final — while the run is still going, not after
// it.

// DefaultSettleFrames is how many of the newest journal frames a follower
// holds back before analysis. Journal records are amended after they are
// appended — transport feedback (acks, realized bandwidth) and outage/MOT
// verdicts land one to a few frames later — so analyzing a record the
// moment it appears would see zeroed amendment fields and mis-diagnose.
const DefaultSettleFrames = 8

// Follower incrementally diagnoses a live record stream. Feed it snapshots
// (oldest-first, cursor values increasing, as the /debug endpoints serve
// them) via Ingest; it consumes each record exactly once, holding back the
// newest settle cursor values until they have had time to be amended. Not
// goroutine-safe; wrap in Live for a shared HTTP-facing instance.
type Follower[R any] struct {
	dets   []Detector[R]
	cursor func(*R) int // the record's position in its stream: frame or tick
	settle int

	started  bool
	next     int // first cursor value not yet consumed
	consumed int
}

// NewFollower builds a journal follower: cursor on the frame number,
// outageRun as in NewDetectors, settle the margin of newest frames held back
// (negative selects DefaultSettleFrames; 0 is valid and analyzes every
// snapshot to its newest frame).
func NewFollower(outageRun, settle int) *Follower[obs.JournalRecord] {
	if settle < 0 {
		settle = DefaultSettleFrames
	}
	return &Follower[obs.JournalRecord]{
		dets: NewDetectors(outageRun), settle: settle,
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

// maxLiveFindings bounds the findings a Live instance retains (oldest
// dropped first), so a pathological run cannot grow the process.
const maxLiveFindings = 256

// Live is a goroutine-safe follower bound to an in-process journal source,
// serving the current diagnosis at /debug/doctor. Each Poll (or HTTP
// request) ingests whatever the journal has accumulated since the last
// one, so no background goroutine is needed.
type Live struct {
	source func() []obs.JournalRecord

	mu       sync.Mutex
	follower *Follower[obs.JournalRecord]
	findings []Finding
}

// NewLive builds a live doctor over a journal source (typically
// recorder.Journal().Snapshot); outageRun and settle as in NewFollower.
func NewLive(outageRun, settle int, source func() []obs.JournalRecord) *Live {
	return &Live{source: source, follower: NewFollower(outageRun, settle)}
}

// Poll ingests the journal's current snapshot and returns any findings
// that became final on this poll.
func (l *Live) Poll() []Finding {
	if l == nil || l.source == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fresh := l.follower.Ingest(l.source())
	l.findings = append(l.findings, fresh...)
	if n := len(l.findings); n > maxLiveFindings {
		l.findings = append(l.findings[:0:0], l.findings[n-maxLiveFindings:]...)
	}
	return fresh
}

// Report polls and returns the full live diagnosis.
func (l *Live) Report() Report {
	l.Poll()
	l.mu.Lock()
	defer l.mu.Unlock()
	return Report{
		Frames:   l.follower.Consumed(),
		Checks:   l.follower.Checks(),
		Findings: append([]Finding(nil), l.findings...),
	}
}

// Handler serves the live diagnosis as JSON — the /debug/doctor endpoint.
func (l *Live) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if l == nil {
			http.Error(w, "live doctor disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(l.Report())
	})
}
