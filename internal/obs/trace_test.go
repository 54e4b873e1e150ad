package obs

import (
	"bytes"
	"runtime"
	"testing"
)

func TestStartTraceMintsDistinctIDs(t *testing.T) {
	rec := NewRecorder(8)
	a := rec.StartTrace(0)
	b := rec.StartTrace(1)
	if !a.Valid() || !b.Valid() {
		t.Fatal("minted contexts should be valid")
	}
	if a.TraceID == b.TraceID {
		t.Fatalf("trace IDs collide: %d", a.TraceID)
	}
	if a.Frame != 0 || b.Frame != 1 {
		t.Errorf("frames = %d, %d", a.Frame, b.Frame)
	}
}

func TestSpanParentChildLinkage(t *testing.T) {
	rec := NewRecorder(8)
	ctx := rec.StartTrace(3)
	root := rec.StartStageSpan(ctx, "frame", "agent", rec.Histogram(StageResponse))
	child := rec.StartSpan(root.Context(), "motion", "agent")
	child.End()
	root.End()

	spans := rec.Spans().Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Rings hold completion order: child ends first.
	c, r := spans[0], spans[1]
	if c.Name != "motion" || r.Name != "frame" {
		t.Fatalf("span order: %s, %s", c.Name, r.Name)
	}
	if c.TraceID != ctx.TraceID || r.TraceID != ctx.TraceID {
		t.Error("spans not under the minted trace ID")
	}
	if c.ParentID != r.SpanID {
		t.Errorf("child parent = %d, want root span %d", c.ParentID, r.SpanID)
	}
	if r.ParentID != 0 {
		t.Errorf("root parent = %d, want 0", r.ParentID)
	}
	if c.Frame != 3 || r.Frame != 3 {
		t.Error("spans lost the frame number")
	}
	if c.DurSec < 0 || r.DurSec < c.DurSec {
		t.Errorf("durations: child %v, root %v", c.DurSec, r.DurSec)
	}
	// The stage span also fed the histogram.
	if got := rec.Histogram(StageResponse).Count(); got != 1 {
		t.Errorf("stage histogram count = %d, want 1", got)
	}
}

func TestRecordSpanSimClock(t *testing.T) {
	rec := NewRecorder(8)
	ctx := rec.StartTrace(5)
	id := rec.RecordSpan(ctx, "send", "link", 1.5, 0.25)
	if id == 0 {
		t.Fatal("RecordSpan returned 0 under a live recorder")
	}
	spans := rec.Spans().Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.StartSec != 1.5 || s.DurSec != 0.25 || s.Site != "link" {
		t.Errorf("sim span = %+v", s)
	}
	// Invalid context is a no-op.
	if got := rec.RecordSpan(TraceContext{}, "x", "link", 0, 0); got != 0 {
		t.Errorf("invalid-context RecordSpan returned %d", got)
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder(8)
	ctx := rec.StartTrace(1)
	rec.RecordSpan(ctx, "send", "agent", 0.1, 0.2)
	rec.RecordSpan(ctx, "decode", "edge", 0.3, 0.05)
	var buf bytes.Buffer
	if err := rec.Spans().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL[SpanRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Spans().Snapshot()
	if len(got) != len(want) {
		t.Fatalf("round-trip lost spans: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("span %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestJournalJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder(8)
	rec.RecordJournal(JournalRecord{
		TraceID: 7, Frame: 0, Type: "I",
		Eta: 0.4, EtaThreshold: 0.15, Moving: true,
		BaseQP: 24, Bits: 12345, TargetBits: 20000, EstBWBps: 2e6,
		RCTrials:  []QPTrial{{QP: 25, Bits: 30000}, {QP: 12, Bits: 90000}},
		GroundMBs: 10, FGMBs: 5, BGMBs: 225,
	})
	rec.AmendJournalFrame(0, func(j *JournalRecord) {
		j.AckBits = 12345
		j.AckStartSec = 0.0
		j.AckEndSec = 0.006
		j.RealizedBWBps = 12345 / 0.006
	})
	var buf bytes.Buffer
	if err := rec.Journal().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL[JournalRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("round-trip produced %d records", len(got))
	}
	j := got[0]
	if j.TraceID != 7 || j.BaseQP != 24 || len(j.RCTrials) != 2 {
		t.Errorf("round-trip mangled record: %+v", j)
	}
	if j.RCTrials[1] != (QPTrial{QP: 12, Bits: 90000}) {
		t.Errorf("RC trials mangled: %+v", j.RCTrials)
	}
	if j.RealizedBWBps == 0 || j.AckBits != 12345 {
		t.Errorf("amendment lost: %+v", j)
	}
}

// allocFree fails t unless op allocates nothing once warm: over the 200
// calls testing.AllocsPerRun counts after its warm-up call, the
// whole-number mean count must be 0 and runtime.MemStats.TotalAlloc at most
// 64 B a call. The byte bound fails an allocation on only some calls, which
// the truncated count reads as 0. Its 64 B, over 200 calls, leave room for
// a rare allocation made outside op while it runs (one of 5.5 kB was seen
// over 32 calls of a warm encoder).
func allocFree(t *testing.T, name string, op func()) {
	t.Helper()
	const runs = 200
	var before, after runtime.MemStats
	warm := false
	allocs := testing.AllocsPerRun(runs, func() {
		op()
		if !warm {
			warm = true
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; allocs != 0 || b > 64 {
		t.Errorf("%s: %.0f allocs and %d B per op, want 0 and at most 64", name, allocs, b)
	}
}

// TestDisabledTracePathAllocFree is the acceptance bar for the hot path:
// with no recorder installed, minting a trace, running a span and touching
// the journal must not allocate at all, nor may any nil-recorder path a
// Benchmark…Disabled row times.
func TestDisabledTracePathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"frame", func() {
			var r *Recorder
			ctx := r.StartTrace(1)
			sp := r.StartStageSpan(ctx, "motion", "agent", r.Histogram(StageResponse))
			sp.Context()
			sp.End()
			r.RecordSpan(ctx, "send", "agent", 0, 1)
			r.AmendJournalFrame(1, func(*JournalRecord) {})
		}},
		{"Span", spanDisabled},
		{"Counter", counterDisabled},
		{"Trace", traceDisabled},
		{"LabeledCounter", labeledCounterDisabled},
		{"LabeledHistogram", labeledHistogramDisabled},
		{"SLO", sloDisabled},
	} {
		allocFree(t, "disabled "+tc.name+" path", tc.op)
	}
}

// TestEnabledSpansSkipInvalidContexts: a live recorder fed an invalid
// context (e.g. a frame traced before telemetry was enabled) records
// nothing.
func TestEnabledSpansSkipInvalidContexts(t *testing.T) {
	rec := NewRecorder(8)
	sp := rec.StartSpan(TraceContext{}, "motion", "agent")
	sp.End()
	if got := rec.Spans().Total(); got != 0 {
		t.Errorf("invalid-context span recorded (%d spans)", got)
	}
}
