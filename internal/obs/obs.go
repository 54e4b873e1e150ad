package obs

import (
	"sync/atomic"
	"time"
)

// Canonical metric names. Each family here has a reader outside obs's own
// exposition — a doctor check, a smoke script, the fleet rollup, the
// benchmark, or an operator query README documents and a test pins —
// and TestEveryFamilyHasReader names it; a family without one is deleted.
const (
	// Agent pipeline (internal/core): frames and payload bytes, the fleet
	// rollup's per-session totals.
	MetricFrames = "dive_frames_total"
	MetricBytes  = "dive_bytes_total"

	// Bandwidth estimate (internal/netsim.Estimator).
	GaugeBWEstimate = "netsim_bw_estimate_bps"

	// End-to-end response times, capture to result: edge.Client observes
	// one per ack, the fleet model one per modelled frame.
	StageResponse = "e2e_response_seconds"

	// Edge serving (internal/edge.Server, and the simulated edge of
	// internal/sim), labeled by session: frame/byte/keyframe-NACK counts
	// and decode/detect latency per stream, the inputs of fleet-level
	// routing and shedding decisions. They are the only record: a process
	// total is the sum over sessions.
	MetricEdgeSessionFrames = "edge_session_frames_total"
	MetricEdgeSessionBytes  = "edge_session_bytes_total"
	MetricEdgeSessionNacks  = "edge_session_nacks_total"
	StageEdgeSessionDecode  = "edge_session_decode_seconds"
	StageEdgeSessionDetect  = "edge_session_detect_seconds"

	// SessionLabel is the label key of every per-session family.
	SessionLabel = "session"

	// SLO tracker gauges (slo.go), labeled by session: worst-objective burn
	// rate, window latency p99 and outage-tracked fraction.
	GaugeSLOBurnRate   = "slo_burn_rate"
	GaugeSLOLatencyP99 = "slo_latency_p99_seconds"
	GaugeSLOOutageFrac = "slo_outage_fraction"

	// Go runtime gauges (runtime.go): live heap bytes, GC pause p99 and
	// goroutine count, refreshed by UpdateRuntimeGauges.
	GaugeGoHeapLiveBytes = "go_heap_live_bytes"
	GaugeGoGCPauseP99    = "go_gc_pause_p99_seconds"
	GaugeGoGoroutines    = "go_goroutines"

	// MetricLabelOverflow counts lookups folded into OverflowLabel because a
	// labeled family or the SLO tracker hit MaxLabelValues — the signal that
	// per-session series are silently collapsing (foldLabel, registry.go).
	MetricLabelOverflow = "obs_label_overflow_total"
)

// Recorder bundles a metrics registry, the decision journal, the span ring
// of causal frame traces and the SLO tracker. Each per-frame fact is stored
// once: decisions in the journal, durations in the spans; the frame
// lifecycle (FrameRecords) is their join. A nil *Recorder is a valid,
// zero-cost no-op recorder; every method tolerates it, so instrumented code
// never guards.
type Recorder struct {
	reg     *Registry
	journal *Ring[JournalRecord]
	spans   *Ring[SpanRecord]
	slo     *SLOTracker
	start   time.Time

	traceSeq atomic.Uint64 // trace IDs minted by StartTrace
	spanSeq  atomic.Uint64 // span IDs minted by StartSpan/RecordSpan
}

// NewRecorder creates a recorder whose decision journal keeps the last
// ringCap frames (<= 0 selects 1024). The span ring keeps several spans per
// frame, so it is sized to a small multiple of ringCap.
func NewRecorder(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = 1024
	}
	reg := NewRegistry()
	return &Recorder{
		reg:     reg,
		journal: NewRing(ringCap, func(j *JournalRecord) int { return j.Frame }),
		spans:   NewRing[SpanRecord](ringCap*spansPerFrame, nil),
		slo:     NewSLOTracker(reg),
		start:   time.Now(),
	}
}

// spansPerFrame sizes the span ring relative to the journal: a frame
// trace holds roughly one span per pipeline stage on each side of the link.
const spansPerFrame = 10

// Registry returns the underlying registry (nil for a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Counter returns the named counter (nil, hence no-op, on a nil recorder).
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge returns the named gauge (nil on a nil recorder).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram returns the named duration histogram (nil on a nil recorder).
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name, DefaultDurationBuckets)
}

// LabeledCounter returns the named counter family keyed by the label key
// (nil, hence no-op, on a nil recorder).
func (r *Recorder) LabeledCounter(name, key string) *LabeledCounter {
	if r == nil {
		return nil
	}
	return r.reg.LabeledCounter(name, key)
}

// LabeledHistogram returns the named duration-histogram family (nil on a
// nil recorder).
func (r *Recorder) LabeledHistogram(name, key string) *LabeledHistogram {
	if r == nil {
		return nil
	}
	return r.reg.LabeledHistogram(name, key, DefaultDurationBuckets)
}
