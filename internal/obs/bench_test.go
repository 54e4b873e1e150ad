package obs

import "testing"

// BenchmarkSpanDisabled measures the instrumentation cost when no recorder
// is installed — the path every library user pays. The acceptance bar is
// <5 ns/op: a nil check on each side and no clock reads.
func BenchmarkSpanDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.StartSpan(TraceContext{}, "encode", "agent")
		_ = s.End()
	}
}

// BenchmarkCounterDisabled is the nil-counter fast path.
func BenchmarkCounterDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter(MetricFrames).Inc()
	}
}

// BenchmarkTraceDisabled measures the full disabled frame-trace path —
// mint a context, run a stage span, record a sim span — which must stay
// allocation-free and within a few nanoseconds, like the plain span path.
func BenchmarkTraceDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := r.StartTrace(i)
		s := r.StartStageSpan(ctx, "motion", "agent", r.Histogram(StageResponse))
		_ = s.End()
		r.RecordSpan(ctx, "send", "agent", 0, 1)
	}
}

// BenchmarkLabeledCounterDisabled is the nil fast path through a labeled
// family — the per-session instrumentation sites in internal/edge and
// internal/core run this when telemetry is off, so it must stay within a
// few nanoseconds and allocation-free like the unlabeled path.
func BenchmarkLabeledCounterDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.LabeledCounter(MetricEdgeSessionFrames, SessionLabel).With("s").Inc()
	}
}

// BenchmarkLabeledHistogramDisabled is the nil labeled-histogram path.
func BenchmarkLabeledHistogramDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.LabeledHistogram(StageEdgeSessionDecode, SessionLabel).With("s").Observe(0.003)
	}
}

// BenchmarkSLODisabled is the nil SLO-observation path.
func BenchmarkSLODisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.ObserveSLO("s", SLOSample{LatencySec: 0.01, FGShare: 0.1})
	}
}

// BenchmarkLabeledCounterHeld is the recommended hot path when telemetry is
// on: resolve the child once, observe many times — identical to the
// unlabeled counter after the one-time lookup.
func BenchmarkLabeledCounterHeld(b *testing.B) {
	r := NewRecorder(1)
	c := r.LabeledCounter(MetricEdgeSessionFrames, SessionLabel).With("s")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkLabeledCounterWith includes the per-observation map lookup, for
// sites that cannot hold the child.
func BenchmarkLabeledCounterWith(b *testing.B) {
	r := NewRecorder(1)
	fam := r.LabeledCounter(MetricEdgeSessionFrames, SessionLabel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.With("s").Inc()
	}
}

// BenchmarkSpanEnabled is the live cost: two clock reads, one span record
// and one histogram observation.
func BenchmarkSpanEnabled(b *testing.B) {
	r := NewRecorder(1)
	h := r.Histogram(StageResponse)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.StartStageSpan(r.StartTrace(i), "encode", "agent", h)
		_ = s.End()
	}
}

// BenchmarkHistogramObserve is the raw observation cost (no clock reads).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultDurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}
