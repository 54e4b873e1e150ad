package obs

import (
	"encoding/json"
	"sync/atomic"
	"time"
)

// Canonical metric names. Keeping them in one place documents the schema
// and lets the README reference a single source of truth.
const (
	// Agent pipeline (internal/core).
	MetricFrames        = "dive_frames_total"
	MetricBits          = "dive_bits_total"
	MetricBytes         = "dive_bytes_total"
	MetricIFrames       = "dive_iframes_total"
	MetricForcedIFrames = "dive_forced_iframes_total"
	GaugeEta            = "dive_eta"
	GaugeFGFraction     = "dive_fg_fraction"
	StageFrame          = "dive_frame_seconds"
	StageMotion         = "dive_stage_motion_seconds"
	StageRotation       = "dive_stage_rotation_seconds"
	StageForeground     = "dive_stage_foreground_seconds"
	StageEncode         = "dive_stage_encode_seconds"

	// Codec internals (internal/codec), the parts of the agent's encode
	// span: StageCodecDCT the P-frame transform cache, StageCodecRC the
	// rate-control search (its trial passes; absent on fixed-QP frames),
	// StageCodecEntropy the final quantize-reconstruct-count pass at the
	// chosen QP.
	StageCodecDCT     = "codec_dct_seconds"
	StageCodecRC      = "codec_rc_seconds"
	StageCodecEntropy = "codec_entropy_seconds"
	MetricRCTrials    = "codec_rc_trials_total"

	// Network simulator (internal/netsim).
	GaugeBWEstimate = "netsim_bw_estimate_bps"
	GaugeBWActual   = "netsim_bw_actual_bps"
	MetricAckedBits = "netsim_acked_bits_total"
	StageAck        = "netsim_ack_seconds"
	StageQueueDelay = "netsim_queue_delay_seconds"
	MetricOutageTx  = "netsim_outage_sends_total"

	// Edge server (internal/edge): served sessions, and the robustness
	// counters — resumed sessions and corrupt/malformed messages survived.
	MetricEdgeSessions = "edge_sessions_total"
	MetricEdgeResumes  = "edge_session_resumes_total"
	MetricEdgeCorrupt  = "edge_corrupt_msgs_total"
	// Client-side robustness: reconnect attempts, ACK-deadline outage
	// activations, and sends suppressed by the degradation ladder.
	MetricClientReconnects = "edge_client_reconnects_total"
	MetricClientAckTimeout = "edge_client_ack_timeouts_total"
	MetricClientSkips      = "edge_client_skipped_sends_total"
	// Cluster migration counters: completed session handoffs (planned +
	// forced), Redirect messages received, and redirects rejected as
	// malformed or self-referential (never dialed).
	MetricClientMigrations   = "edge_client_migrations_total"
	MetricClientRedirects    = "edge_client_redirects_total"
	MetricClientBadRedirects = "edge_client_bad_redirects_total"
	// Server-side drain: sessions redirected away by RedirectSessions.
	MetricEdgeRedirectsSent = "edge_redirects_sent_total"

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

// LabeledGauge returns the named gauge family (nil on a nil recorder).
func (r *Recorder) LabeledGauge(name, key string) *LabeledGauge {
	if r == nil {
		return nil
	}
	return r.reg.LabeledGauge(name, key)
}

// LabeledHistogram returns the named duration-histogram family (nil on a
// nil recorder).
func (r *Recorder) LabeledHistogram(name, key string) *LabeledHistogram {
	if r == nil {
		return nil
	}
	return r.reg.LabeledHistogram(name, key, DefaultDurationBuckets)
}

// Snapshot returns a point-in-time copy of every metric plus uptime.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]HistogramSnapshot{},
		}
	}
	s := r.reg.Snapshot()
	s.UptimeSec = time.Since(r.start).Seconds()
	return s
}

// SnapshotJSON marshals Snapshot as indented JSON.
func (r *Recorder) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
