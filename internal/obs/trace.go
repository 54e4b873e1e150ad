package obs

import "time"

// TraceContext identifies one frame's end-to-end causal trace. A context is
// minted agent-side at capture (Recorder.StartTrace) and carried alongside
// the encoded bitstream — as side information over the in-process sim link,
// as explicit FrameMsg fields over TCP — so agent-side encode spans and
// server-side decode/detect spans stitch into a single trace per frame.
// The zero value is an invalid (disabled) context; every span API treats it
// as a no-op destination.
type TraceContext struct {
	TraceID uint64 `json:"trace_id"`
	Frame   int    `json:"frame"`
	// SpanID is the parent span for spans started under this context
	// (0 = root).
	SpanID uint64 `json:"span_id,omitempty"`
}

// Valid reports whether the context belongs to a live trace.
func (c TraceContext) Valid() bool { return c.TraceID != 0 }

// SpanRecord is one completed span of a frame trace. Agent- and edge-side
// pipeline stages record wall-clock spans; the simulated uplink records
// spans on the simulated clock. StartSec is relative to the recorder start
// (wall spans) or to the simulation epoch (sim spans); DurSec is always a
// duration, which is what latency analysis consumes.
type SpanRecord struct {
	TraceID  uint64  `json:"trace_id"`
	SpanID   uint64  `json:"span_id"`
	ParentID uint64  `json:"parent_span_id,omitempty"`
	Frame    int     `json:"frame"`
	Name     string  `json:"name"`
	Site     string  `json:"site"` // "agent", "link" or "edge"
	StartSec float64 `json:"start_sec"`
	DurSec   float64 `json:"dur_sec"`
}

// StartTrace mints a fresh trace context for the frame captured now. A nil
// recorder returns the invalid zero context at zero cost.
func (r *Recorder) StartTrace(frame int) TraceContext {
	if r == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: r.traceSeq.Add(1), Frame: frame}
}

// Spans returns the span ring (nil for a nil recorder).
func (r *Recorder) Spans() *Ring[SpanRecord] {
	if r == nil {
		return nil
	}
	return r.spans
}

// Span is one in-flight wall-clock span, and the one timer of the pipeline
// stages. The zero value (returned under a nil recorder, or an invalid
// context with no histogram) is a no-op on both sides; no clock is read and
// nothing allocates.
type Span struct {
	r     *Recorder
	ctx   TraceContext
	h     *Histogram
	name  string
	site  string
	id    uint64
	start time.Time
}

// StartSpan begins a wall-clock span under ctx at the given site.
func (r *Recorder) StartSpan(ctx TraceContext, name, site string) Span {
	return r.StartStageSpan(ctx, name, site, nil)
}

// StartStage begins timing the named stage outside any trace: the span only
// observes the stage histogram on End. The nil check stands apart from the
// histogram lookup (startStage) so that it inlines into the call site.
func (r *Recorder) StartStage(name string) Span {
	if r == nil {
		return Span{}
	}
	return r.startStage(name)
}

func (r *Recorder) startStage(name string) Span {
	return r.StartStageSpan(TraceContext{}, "", "", r.Histogram(name))
}

// StartStageSpan begins a wall-clock span that, on End, also observes its
// duration into h (nil skips the histogram; a labeled child works as well
// as a plain one). This is the one timer: one clock read per side feeds the
// causal trace and the aggregate metrics. With an invalid context (e.g. the
// peer ran without telemetry) the histogram is still fed, only the trace
// record is skipped.
func (r *Recorder) StartStageSpan(ctx TraceContext, name, site string, h *Histogram) Span {
	if r == nil || (!ctx.Valid() && h == nil) {
		return Span{}
	}
	var id uint64
	if ctx.Valid() {
		id = r.spanSeq.Add(1)
	}
	return Span{
		r: r, ctx: ctx, h: h, name: name, site: site,
		id:    id,
		start: time.Now(),
	}
}

// Context returns ctx rebased onto this span, so spans started under it
// become children. The no-op span returns its (invalid) context unchanged.
func (s Span) Context() TraceContext {
	ctx := s.ctx
	if s.r != nil {
		ctx.SpanID = s.id
	}
	return ctx
}

// End completes the span, appends its record to the span ring (when the
// context was valid) and returns the elapsed duration (0 for the no-op
// span).
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	if s.ctx.Valid() {
		s.r.spans.Append(SpanRecord{
			TraceID: s.ctx.TraceID, SpanID: s.id, ParentID: s.ctx.SpanID,
			Frame: s.ctx.Frame, Name: s.name, Site: s.site,
			StartSec: s.start.Sub(s.r.start).Seconds(),
			DurSec:   d.Seconds(),
		})
	}
	return d
}

// RecordSpan appends a completed span with explicit times — the entry point
// for components on the simulated clock (the netsim uplink, the simulated
// edge server latencies), where start and duration are simulated seconds.
// Returns the span ID (0 under a nil recorder or invalid context).
func (r *Recorder) RecordSpan(ctx TraceContext, name, site string, startSec, durSec float64) uint64 {
	if r == nil || !ctx.Valid() {
		return 0
	}
	id := r.spanSeq.Add(1)
	r.spans.Append(SpanRecord{
		TraceID: ctx.TraceID, SpanID: id, ParentID: ctx.SpanID,
		Frame: ctx.Frame, Name: name, Site: site,
		StartSec: startSec, DurSec: durSec,
	})
	return id
}
