package netsim

import (
	"math"

	"dive/internal/obs"
)

// Link is a FIFO uplink driven by a bandwidth Trace. Transmissions are
// serialized: a message starts when both it has been enqueued and every
// earlier message has drained. Completion times come from integrating the
// instantaneous trace rate.
type Link struct {
	Trace Trace
	// PropDelay is the one-way propagation delay in seconds, added on top
	// of serialization.
	PropDelay float64
	// busyUntil is when the link finishes draining everything enqueued.
	busyUntil float64
	// integrationStep bounds the numeric integration error (seconds).
	integrationStep float64
}

// NewLink creates a link over the trace with the given propagation delay.
func NewLink(trace Trace, propDelay float64) *Link {
	return &Link{Trace: trace, PropDelay: propDelay, integrationStep: 1e-3}
}

// Send enqueues bits at time t and returns (startTime, serializedTime,
// deliveryTime): when serialization began, when the last bit left the
// sender (the interval to feed bandwidth estimators — it excludes
// propagation), and when the last bit arrives at the receiver. Calls must
// be made with non-decreasing enqueue times.
func (l *Link) Send(t float64, bits int) (start, serialized, delivery float64) {
	start = t
	if l.busyUntil > start {
		start = l.busyUntil
	}
	end := l.drainTime(start, float64(bits))
	l.busyUntil = end
	return start, end, end + l.PropDelay
}

// QueueDelay returns how long a message enqueued at t would wait before its
// first bit is sent.
func (l *Link) QueueDelay(t float64) float64 {
	if l.busyUntil > t {
		return l.busyUntil - t
	}
	return 0
}

// Reset clears queued state (used between independent experiment runs).
func (l *Link) Reset() { l.busyUntil = 0 }

// drainTime integrates the trace from start until bits have been sent.
func (l *Link) drainTime(start, bits float64) float64 {
	if bits <= 0 {
		return start
	}
	t := start
	remaining := bits
	step := l.integrationStep
	// Hard cap so a permanently-dead trace cannot spin forever: give up
	// after an hour of simulated time and report +Inf-like delivery.
	limit := start + 3600
	for t < limit {
		bw := l.Trace.BandwidthAt(t)
		if bw <= 0 {
			// Fast-forward through dead air in larger steps.
			t += step * 10
			continue
		}
		sent := bw * step
		if sent >= remaining {
			return t + remaining/bw
		}
		remaining -= sent
		t += step
	}
	return math.Inf(1)
}

// Estimator is the agent-side sliding-window uplink estimator (Section
// III-D1): it records acknowledged transmissions and reports the average
// throughput over the link's recent *active* time. Dividing by active
// transmission time rather than the wall-clock window keeps the estimate at
// link capacity even when the sender is not saturating the uplink — the
// wall-clock version death-spirals (smaller estimate → smaller frames →
// even smaller estimate).
type Estimator struct {
	// Window is the sliding horizon in seconds.
	Window float64
	// Prior is returned before any samples arrive (bits/s).
	Prior float64
	// Obs receives the live bandwidth estimate (GaugeBWEstimate). Nil
	// disables instrumentation.
	Obs     *obs.Recorder
	samples []ackSample
}

// DefaultMinEstimate floors EstimateAt (bits/s): 8 kbit/s, far below any
// usable video rate but enough to keep rate control's budget strictly
// positive so probe frames keep flowing. Outage-poisoned windows — acked
// intervals carrying zero or near-zero bits — would otherwise drive the
// estimate to zero and deadlock rate control at a zero bit budget.
const DefaultMinEstimate = 8_000.0

type ackSample struct {
	start, end float64
	bits       float64
}

// NewEstimator creates an estimator with the given window and prior. Obs is
// left nil; a caller that wants estimator telemetry sets it.
func NewEstimator(window, prior float64) *Estimator {
	return &Estimator{Window: window, Prior: prior}
}

// Record notes that bits were serialized onto the link during [start, end].
func (e *Estimator) Record(start, end float64, bits int) {
	if end < start {
		start, end = end, start
	}
	e.samples = append(e.samples, ackSample{start: start, end: end, bits: float64(bits)})
	// Trim anything far older than the window to bound memory.
	cutoff := end - 4*e.Window
	i := 0
	for i < len(e.samples) && e.samples[i].end < cutoff {
		i++
	}
	if i > 0 {
		e.samples = append(e.samples[:0], e.samples[i:]...)
	}
}

// EstimateAt returns the estimated uplink bandwidth (bits/s) at time t:
// acknowledged bits within the window divided by the active transmission
// time that carried them.
func (e *Estimator) EstimateAt(t float64) float64 {
	lo := t - e.Window
	var bits, active float64
	for _, s := range e.samples {
		if s.end <= lo || s.start >= t {
			continue
		}
		// Clip the transmission to the window and prorate its bits.
		clipStart := s.start
		if clipStart < lo {
			clipStart = lo
		}
		clipEnd := s.end
		if clipEnd > t {
			clipEnd = t
		}
		dur := s.end - s.start
		frac := 1.0
		if dur > 0 {
			frac = (clipEnd - clipStart) / dur
		}
		bits += s.bits * frac
		active += clipEnd - clipStart
	}
	if active <= 1e-9 {
		est := max(e.Prior, DefaultMinEstimate)
		e.Obs.Gauge(obs.GaugeBWEstimate).Set(est)
		return est
	}
	est := max(bits/active, DefaultMinEstimate)
	e.Obs.Gauge(obs.GaugeBWEstimate).Set(est)
	return est
}
