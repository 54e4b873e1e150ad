package core

// Link-health scoring and the graceful-degradation ladder.
//
// The transport (live client or simulator) feeds link events — acks,
// ack-deadline expiries, server NACKs, reconnects — into a LinkHealth
// tracker. The tracker maintains an EWMA health score in [0,1] and maps it
// onto a five-rung ladder of increasingly drastic responses:
//
//	0 healthy    — nothing changes
//	1 qp-floor   — raise the encoder's minimum QP (cheaper frames)
//	2 budget-cut — also shrink the rate-control bit budget
//	3 frame-skip — also upload only every 2nd frame, MOT covers the rest
//	4 mot-only   — upload only every 8th frame as a link probe; local
//	               tracking carries the analytics
//
// Transitions are damped two ways: a move needs the score to cross the
// rung's threshold (with hysteresis on the way back up), and at most one
// rung may be taken every healthDwellFrames frames. The damping is what makes
// the ladder an instrument rather than an oscillator — divedoctor's
// ladder-stuck and reconnect-storm detectors grade its journal trail.

// LadderLevel is a rung of the graceful-degradation ladder.
type LadderLevel int

const (
	LadderHealthy LadderLevel = iota
	LadderQPFloor
	LadderBudgetCut
	LadderFrameSkip
	LadderMOTOnly
)

// String names the rung for journals and logs.
func (l LadderLevel) String() string {
	switch l {
	case LadderHealthy:
		return "healthy"
	case LadderQPFloor:
		return "qp-floor"
	case LadderBudgetCut:
		return "budget-cut"
	case LadderFrameSkip:
		return "frame-skip"
	case LadderMOTOnly:
		return "mot-only"
	default:
		return "unknown"
	}
}

// Degradation is the concrete response a ladder rung imposes on the encode
// and transport path.
type Degradation struct {
	Level LadderLevel
	// QPFloor is the minimum base QP the encoder may use (0 = no floor).
	QPFloor int
	// BudgetScale multiplies the rate-control bit budget (1 = untouched).
	BudgetScale float64
	// SkipModulo uploads only every Nth frame (0 or 1 = upload all).
	// Skipped frames are MOT-tracked locally; the periodic upload doubles
	// as a link probe so the score can observe recovery.
	SkipModulo int
}

// Degradation returns the response table entry for the rung.
func (l LadderLevel) Degradation() Degradation {
	switch l {
	case LadderQPFloor:
		return Degradation{Level: l, QPFloor: 30, BudgetScale: 1}
	case LadderBudgetCut:
		return Degradation{Level: l, QPFloor: 34, BudgetScale: 0.6}
	case LadderFrameSkip:
		return Degradation{Level: l, QPFloor: 38, BudgetScale: 0.5, SkipModulo: 2}
	case LadderMOTOnly:
		return Degradation{Level: l, QPFloor: 42, BudgetScale: 0.4, SkipModulo: 8}
	default:
		return Degradation{Level: LadderHealthy, BudgetScale: 1}
	}
}

// The link-health tuning. One value of each was ever in use, so they are
// constants, not configuration.
const (
	// healthAlpha is the EWMA weight of each new observation.
	healthAlpha = 0.2
	// healthHysteresis is the extra score margin required to climb back up a
	// rung.
	healthHysteresis = 0.1
	// healthDwellFrames is the minimum number of Tick calls between ladder
	// moves.
	healthDwellFrames = 6
)

// degradeAt are the score thresholds below which rungs 1..4 engage, strictly
// descending.
var degradeAt = [4]float64{0.75, 0.5, 0.3, 0.15}

// LinkHealth tracks an EWMA health score from transport events and drives
// the degradation ladder with hysteresis and dwell. Not safe for concurrent
// use; transports own one instance on their feedback goroutine.
type LinkHealth struct {
	score  float64
	level  LadderLevel
	dwell  int // Ticks since the last ladder move
	primed bool
}

// NewLinkHealth builds a tracker starting healthy (score 1).
func NewLinkHealth() *LinkHealth { return &LinkHealth{score: 1} }

// Observe folds one transport outcome in [0,1] into the score (1 = the link
// behaved, 0 = it failed hard).
func (h *LinkHealth) Observe(outcome float64) {
	if outcome < 0 {
		outcome = 0
	} else if outcome > 1 {
		outcome = 1
	}
	h.score = (1-healthAlpha)*h.score + healthAlpha*outcome
	h.primed = true
}

// ObserveAck records a clean, in-deadline acknowledgement.
func (h *LinkHealth) ObserveAck() { h.Observe(1) }

// ObserveTimeout records an ack deadline expiry (the outage path fired).
func (h *LinkHealth) ObserveTimeout() { h.Observe(0) }

// ObserveNack records a server NACK (corrupt frame or decoder desync):
// damaging, but the link itself still round-tripped a message.
func (h *LinkHealth) ObserveNack() { h.Observe(0.4) }

// ObserveReconnect records a connection loss.
func (h *LinkHealth) ObserveReconnect() { h.Observe(0) }

// Score returns the current health score in [0,1].
func (h *LinkHealth) Score() float64 { return h.score }

// Level returns the current ladder rung.
func (h *LinkHealth) Level() LadderLevel { return h.level }

// target returns the rung the raw score asks for, with hysteresis applied
// against the current rung on the way up.
func (h *LinkHealth) target() LadderLevel {
	t := LadderHealthy
	for i, th := range degradeAt {
		if h.score < th {
			t = LadderLevel(i + 1)
		}
	}
	if t < h.level {
		// Climbing back up: require the score to clear the threshold of
		// the rung being left by the hysteresis margin.
		for lvl := h.level; lvl > t; lvl-- {
			if h.score < degradeAt[lvl-1]+healthHysteresis {
				return lvl
			}
		}
	}
	return t
}

// Tick advances the ladder by at most one rung (respecting dwell) and
// returns the degradation the next frame must be encoded under. Call once
// per frame.
func (h *LinkHealth) Tick() Degradation {
	h.dwell++
	if h.primed && h.dwell >= healthDwellFrames {
		t := h.target()
		if t > h.level {
			h.level++
			h.dwell = 0
		} else if t < h.level {
			h.level--
			h.dwell = 0
		}
	}
	return h.level.Degradation()
}
