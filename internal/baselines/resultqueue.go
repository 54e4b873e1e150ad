package baselines

import (
	"dive/internal/detect"
	"dive/internal/mvfield"
)

// resultQueue models the feedback latency of key-frame schemes: detection
// results computed by the server become usable on the device only when they
// arrive, one round trip after capture. While a result is in flight the
// queue accumulates the per-frame motion fields, so on arrival the stale
// boxes can be replayed ("caught up") through the motion that happened in
// the meantime — the correction step O3 and EAAR describe.
type resultQueue struct {
	w, h    int
	pending []pendingResult
}

type pendingResult struct {
	dets     []detect.Detection
	arriveAt float64
	fields   []*mvfield.Field // motion since the result's capture frame
}

// newResultQueue creates a queue for a w×h stream.
func newResultQueue(w, h int) *resultQueue {
	return &resultQueue{w: w, h: h}
}

// push registers a server result that will arrive at arriveAt.
func (q *resultQueue) push(dets []detect.Detection, arriveAt float64) {
	q.pending = append(q.pending, pendingResult{dets: dets, arriveAt: arriveAt})
}

// collect must be called once per frame with the frame's capture time and
// flow field. It accumulates the field into every in-flight result and, if
// a result has arrived by now, replays it through its accumulated motion
// and returns the caught-up detections. Empty arrived results are dropped
// (nothing to correct with), matching the keep-last-good policy used
// throughout.
func (q *resultQueue) collect(now float64, field *mvfield.Field) ([]detect.Detection, bool) {
	var out []detect.Detection
	found := false
	rest := q.pending[:0]
	for _, p := range q.pending {
		if p.arriveAt <= now {
			if len(p.dets) > 0 {
				caught := p.dets
				for _, f := range p.fields {
					caught = trackForward(caught, f, q.w, q.h)
				}
				out = caught
				found = true
			}
			continue
		}
		p.fields = append(p.fields, field)
		rest = append(rest, p)
	}
	q.pending = rest
	return out, found
}
