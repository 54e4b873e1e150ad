package obs

import "testing"

// The nil-recorder paths, one op each: the instrumentation cost when no
// recorder is installed — the path every library user pays, and the one
// every end-to-end number in BENCHMARK.json runs with. Each is timed by its
// Benchmark…Disabled row and held at 0 allocations by
// TestDisabledTracePathAllocFree.

// spanDisabled is a plain span. The acceptance bar is <5 ns/op: a nil check
// on each side and no clock reads.
func spanDisabled() {
	var r *Recorder
	s := r.StartSpan(TraceContext{}, "encode", "agent")
	_ = s.End()
}

// counterDisabled is the nil-counter fast path.
func counterDisabled() {
	var r *Recorder
	r.Counter(MetricFrames).Inc()
}

// traceDisabled is the full frame-trace path — mint a context, run a stage
// span, record a sim span — which must stay within a few nanoseconds, like
// the plain span path.
func traceDisabled() {
	var r *Recorder
	ctx := r.StartTrace(1)
	s := r.StartStageSpan(ctx, "motion", "agent", r.Histogram(StageResponse))
	_ = s.End()
	r.RecordSpan(ctx, "send", "agent", 0, 1)
}

// labeledCounterDisabled is the path through a labeled family — the
// per-session instrumentation sites in internal/edge and internal/core run
// this when telemetry is off, so it must stay within a few nanoseconds like
// the unlabeled path.
func labeledCounterDisabled() {
	var r *Recorder
	r.LabeledCounter(MetricEdgeSessionFrames, SessionLabel).With("s").Inc()
}

// labeledHistogramDisabled is the labeled-histogram path.
func labeledHistogramDisabled() {
	var r *Recorder
	r.LabeledHistogram(StageEdgeSessionDecode, SessionLabel).With("s").Observe(0.003)
}

// sloDisabled is the SLO-observation path.
func sloDisabled() {
	var r *Recorder
	r.ObserveSLO("s", SLOSample{LatencySec: 0.01, FGShare: 0.1})
}

func BenchmarkSpanDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spanDisabled()
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counterDisabled()
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		traceDisabled()
	}
}

func BenchmarkLabeledCounterDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		labeledCounterDisabled()
	}
}

func BenchmarkLabeledHistogramDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		labeledHistogramDisabled()
	}
}

func BenchmarkSLODisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sloDisabled()
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
