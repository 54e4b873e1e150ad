package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"
)

// SLO tracking: per-session service-level objectives evaluated over sliding
// frame windows, with error-budget burn rates.
//
// The three objectives proxy the paper's evaluation axes on a live stream:
//
//   - latency: the fraction of frames whose end-to-end response time exceeds
//     SLOTargetLatencySec must stay within SLOLatencyBudget (so the target
//     behaves as the window's p99) — the response-time axis of the paper's
//     Table I / Fig 16;
//   - foreground-bit share: the fraction of frames whose foreground share
//     falls below SLOMinFGShare must stay within SLOFGShareBudget — the
//     accuracy proxy, since foreground AP tracks the bits DiVE protects;
//   - outage: the fraction of frames covered only by local MOT tracking must
//     stay below SLOMaxOutageFraction — the staleness axis of Fig 13.
//
// A burn rate is the observed violation fraction divided by the budget: 1.0
// means the session is consuming its error budget exactly as fast as the SLO
// allows, >1 means it will exhaust the budget before the window turns over.
// Fleet controllers (admission, shedding, migration) key off burn rates
// rather than raw violation counts because they are comparable across
// objectives and sessions.

// The objectives are constants: no binary ever tuned them, and /debug/slo
// prints them as its config block.
const (
	// SLOTargetLatencySec is the per-frame end-to-end latency objective and
	// SLOLatencyBudget the allowed fraction of frames over it (0.01 makes
	// the target the window's p99 objective).
	SLOTargetLatencySec = 0.25
	SLOLatencyBudget    = 0.01
	// SLOMinFGShare is the foreground-share floor (the accuracy proxy) and
	// SLOFGShareBudget the allowed fraction of frames under it.
	SLOMinFGShare    = 0.02
	SLOFGShareBudget = 0.10
	// SLOMaxOutageFraction is the allowed fraction of outage-tracked frames.
	SLOMaxOutageFraction = 0.05
	// SLOWindowFrames is the sliding-window length in samples. Tracked
	// sessions are bounded by MaxLabelValues; further ones fold into
	// OverflowLabel.
	SLOWindowFrames = 240
)

// SLOSample is one frame's SLO-relevant outcome. Negative LatencySec or
// FGShare marks the dimension unobserved for this frame (a server-side
// sample has no foreground share; an agent-side sample journaled before the
// ack has no latency yet).
type SLOSample struct {
	LatencySec float64
	FGShare    float64
	Outage     bool
}

// SLOStatus is the evaluated state of one session's objectives over the
// current window — the /debug/slo row.
type SLOStatus struct {
	Session string `json:"session"`
	// Frames is the number of samples in the window.
	Frames int `json:"frames"`

	LatencyP99Sec   float64 `json:"latency_p99_sec"`
	LatencyOverFrac float64 `json:"latency_over_frac"`
	LatencyBurn     float64 `json:"latency_burn"`

	FGShareMean float64 `json:"fg_share_mean"`
	FGUnderFrac float64 `json:"fg_under_frac"`
	FGShareBurn float64 `json:"fg_share_burn"`
	OutageFrac  float64 `json:"outage_frac"`
	OutageBurn  float64 `json:"outage_burn"`

	// BurnRate is the worst objective's burn rate; Healthy means every
	// objective is burning within budget (BurnRate <= 1).
	BurnRate float64 `json:"burn_rate"`
	Healthy  bool    `json:"healthy"`
}

// sloWindow is one session's sliding window of the last SLOWindowFrames
// samples. Evaluation is order-free, so it is a bare overwrite-the-oldest
// slice under the tracker's lock rather than a Ring (which would add a lock
// per window and a copy per evaluation).
type sloWindow struct {
	buf   []SLOSample
	total int
}

func (w *sloWindow) push(s SLOSample) {
	if len(w.buf) < SLOWindowFrames {
		w.buf = append(w.buf, s)
	} else {
		w.buf[w.total%SLOWindowFrames] = s
	}
	w.total++
}

// SLOTracker evaluates per-session objectives over sliding windows. A nil
// tracker is a valid no-op. When constructed with a registry, evaluation
// also publishes per-session burn-rate and p99 gauges as labeled metrics.
type SLOTracker struct {
	reg *Registry

	mu       sync.Mutex
	sessions map[string]*sloWindow
}

// NewSLOTracker builds a tracker. reg may be nil (no gauge export).
func NewSLOTracker(reg *Registry) *SLOTracker {
	return &SLOTracker{reg: reg, sessions: make(map[string]*sloWindow)}
}

// Observe folds one frame outcome into the session's window.
func (t *SLOTracker) Observe(session string, s SLOSample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	w, folded := t.sessions[session], false
	if w == nil {
		if session, folded = foldLabel(session, len(t.sessions)); folded {
			w = t.sessions[session]
		}
		if w == nil {
			w = &sloWindow{}
			t.sessions[session] = w
		}
	}
	w.push(s)
	t.mu.Unlock()
	if folded {
		t.reg.Counter(MetricLabelOverflow).Inc()
	}
}

// Status evaluates every session's objectives over its current window,
// sorted by session name, and refreshes the exported gauges.
func (t *SLOTracker) Status() []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SLOStatus, 0, len(t.sessions))
	for name, w := range t.sessions {
		out = append(out, w.evaluate(name))
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	if t.reg != nil && len(out) > 0 {
		burn := t.reg.LabeledGauge(GaugeSLOBurnRate, SessionLabel)
		p99 := t.reg.LabeledGauge(GaugeSLOLatencyP99, SessionLabel)
		outage := t.reg.LabeledGauge(GaugeSLOOutageFrac, SessionLabel)
		for _, s := range out {
			burn.With(s.Session).Set(s.BurnRate)
			p99.With(s.Session).Set(s.LatencyP99Sec)
			outage.With(s.Session).Set(s.OutageFrac)
		}
	}
	return out
}

// SessionStatus evaluates a single session ("" selects the only session if
// exactly one is tracked). ok is false when the session is unknown.
func (t *SLOTracker) SessionStatus(session string) (SLOStatus, bool) {
	if t == nil {
		return SLOStatus{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if session == "" && len(t.sessions) == 1 {
		for name, w := range t.sessions {
			return w.evaluate(name), true
		}
	}
	w := t.sessions[session]
	if w == nil {
		return SLOStatus{}, false
	}
	return w.evaluate(session), true
}

// evaluate computes the window's status. Caller holds the tracker's lock.
func (w *sloWindow) evaluate(name string) SLOStatus {
	st := SLOStatus{Session: name, Frames: len(w.buf)}
	var lats []float64
	latOver, fgN, fgUnder, fgSum, outages := 0, 0, 0, 0.0, 0
	for _, s := range w.buf {
		if s.LatencySec > 0 {
			lats = append(lats, s.LatencySec)
			if s.LatencySec > SLOTargetLatencySec {
				latOver++
			}
		}
		if s.FGShare >= 0 {
			fgN++
			fgSum += s.FGShare
			if s.FGShare < SLOMinFGShare {
				fgUnder++
			}
		}
		if s.Outage {
			outages++
		}
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		st.LatencyP99Sec = lats[int(math.Ceil(0.99*float64(len(lats))))-1]
		st.LatencyOverFrac = float64(latOver) / float64(len(lats))
		st.LatencyBurn = st.LatencyOverFrac / SLOLatencyBudget
	}
	if fgN > 0 {
		st.FGShareMean = fgSum / float64(fgN)
		st.FGUnderFrac = float64(fgUnder) / float64(fgN)
		st.FGShareBurn = st.FGUnderFrac / SLOFGShareBudget
	}
	if len(w.buf) > 0 {
		st.OutageFrac = float64(outages) / float64(len(w.buf))
		st.OutageBurn = st.OutageFrac / SLOMaxOutageFraction
	}
	st.BurnRate = math.Max(st.LatencyBurn, math.Max(st.FGShareBurn, st.OutageBurn))
	st.Healthy = st.BurnRate <= 1
	return st
}

// sloConfig is the config block of the /debug/slo document: the constants the
// statuses are evaluated against, under the names the document gives them.
var sloConfig = struct {
	TargetLatencySec, LatencyBudget, MinFGShare, FGShareBudget, MaxOutageFraction float64
	WindowFrames, MaxSessions                                                     int
}{SLOTargetLatencySec, SLOLatencyBudget, SLOMinFGShare, SLOFGShareBudget, SLOMaxOutageFraction, SLOWindowFrames, MaxLabelValues}

// Handler serves the tracker state as JSON — the /debug/slo endpoint.
func (t *SLOTracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if t == nil {
			http.Error(w, "slo tracking disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"config": sloConfig, "sessions": t.Status()})
	})
}

// SLO returns the recorder's SLO tracker (nil for a nil recorder).
func (r *Recorder) SLO() *SLOTracker {
	if r == nil {
		return nil
	}
	return r.slo
}

// ObserveSLO folds one frame outcome into the session's SLO window.
func (r *Recorder) ObserveSLO(session string, s SLOSample) {
	if r == nil {
		return
	}
	r.slo.Observe(session, s)
}
