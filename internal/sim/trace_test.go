package sim

import (
	"testing"

	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

// TestEndToEndTraceStitching is the acceptance test for the distributed
// tracing layer: running DiVE over the in-process sim link with telemetry on
// must yield, for each uploaded frame, one trace ID under which the
// agent-side spans (frame, motion, encode, send) and the edge-side spans
// (decode, detect, ack) all appear, with stage spans parented on the frame's
// root span.
func TestEndToEndTraceStitching(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 2, 21)
	env := NewEnv(6)
	rec := obs.NewRecorder(clip.NumFrames())
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(3)), 0.012)
	scheme := &DiVE{ConfigFn: func(cfg *core.AgentConfig) { cfg.Obs = rec }}
	res, err := scheme.Run(clip, link, env)
	if err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans().Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// Group spans by trace ID and index frame→trace.
	byTrace := map[uint64][]obs.SpanRecord{}
	frameTrace := map[int]uint64{}
	for _, s := range spans {
		if s.TraceID == 0 {
			t.Fatalf("span %+v recorded without a trace ID", s)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		if prev, ok := frameTrace[s.Frame]; ok && prev != s.TraceID {
			t.Fatalf("frame %d appears under two trace IDs (%d and %d)", s.Frame, prev, s.TraceID)
		}
		frameTrace[s.Frame] = s.TraceID
	}

	uploaded := 0
	for i, ok := range res.Uploaded {
		if !ok {
			continue
		}
		uploaded++
		tid, found := frameTrace[i]
		if !found {
			t.Fatalf("uploaded frame %d has no trace", i)
		}
		names := map[string]obs.SpanRecord{}
		var root obs.SpanRecord
		for _, s := range byTrace[tid] {
			names[s.Site+"/"+s.Name] = s
			if s.Name == "frame" {
				root = s
			}
		}
		// One end-to-end trace: agent pipeline stages, the uplink
		// serialization, and the simulated edge all under the same ID.
		for _, want := range []string{
			"agent/frame", "agent/motion", "agent/encode", "agent/send",
			"edge/decode", "edge/detect", "edge/ack",
		} {
			if _, ok := names[want]; !ok {
				t.Errorf("frame %d trace %d missing span %s (have %v)", i, tid, want, spanNames(byTrace[tid]))
			}
		}
		// Causality: wall-clock agent stages are children of the root frame
		// span; the root span itself has no parent.
		if root.ParentID != 0 {
			t.Errorf("frame %d root span has parent %d", i, root.ParentID)
		}
		for _, stage := range []string{
			"agent/motion", "agent/encode",
			"agent/send", "edge/decode", "edge/detect", "edge/ack",
		} {
			if s := names[stage]; s.ParentID != root.SpanID {
				t.Errorf("frame %d span %s parent %d, want root %d", i, stage, s.ParentID, root.SpanID)
			}
		}
		// The simulated legs carry simulated-clock durations that are
		// non-negative and ordered: send starts no earlier than capture.
		send := names["agent/send"]
		if send.DurSec < 0 {
			t.Errorf("frame %d send span negative duration %v", i, send.DurSec)
		}
		ack := names["edge/ack"]
		if ack.DurSec <= 0 {
			t.Errorf("frame %d ack span duration %v", i, ack.DurSec)
		}
	}
	if uploaded == 0 {
		t.Fatal("no frames uploaded on a healthy link")
	}

	// Moving frames also run rotation + foreground under the same trace.
	sawRotation := false
	for _, s := range spans {
		if s.Site == "agent" && s.Name == "rotation" {
			sawRotation = true
			if frameTrace[s.Frame] != s.TraceID {
				t.Errorf("rotation span of frame %d off-trace", s.Frame)
			}
		}
	}
	if !sawRotation {
		t.Error("no rotation spans recorded over a moving clip")
	}

	// The journal recorded one entry per frame, each tied to its trace.
	recs := rec.Journal().Snapshot()
	if len(recs) != clip.NumFrames() {
		t.Fatalf("journal has %d records, want %d", len(recs), clip.NumFrames())
	}
	for _, j := range recs {
		if j.TraceID == 0 {
			t.Errorf("journal frame %d has no trace ID", j.Frame)
		}
		if tid, ok := frameTrace[j.Frame]; ok && tid != j.TraceID {
			t.Errorf("journal frame %d trace %d != span trace %d", j.Frame, j.TraceID, tid)
		}
	}
	// Uploaded frames got their ack amendment with a realized bandwidth.
	for i, ok := range res.Uploaded {
		if !ok {
			continue
		}
		j := recs[i]
		if j.AckBits == 0 || j.RealizedBWBps <= 0 {
			t.Errorf("uploaded frame %d journal missing ack feedback: %+v", i, j)
		}
	}
}

// TestTraceParentage is the frame loop's tracing contract: every stage span —
// including "emit", and the send and edge-side spans that open after the root
// span has closed — parents onto the frame's root span under a single trace
// ID, and the journal record carries that ID.
func TestTraceParentage(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 2, 21)
	env := NewEnv(6)
	rec := obs.NewRecorder(clip.NumFrames())
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(3)), 0.012)
	scheme := &DiVE{ConfigFn: func(cfg *core.AgentConfig) { cfg.Obs = rec }}
	res, err := scheme.Run(clip, link, env)
	if err != nil {
		t.Fatal(err)
	}

	byTrace := map[uint64][]obs.SpanRecord{}
	frameTrace := map[int]uint64{}
	for _, s := range rec.Spans().Snapshot() {
		if s.TraceID == 0 {
			t.Fatalf("span %+v recorded without a trace ID", s)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		if prev, ok := frameTrace[s.Frame]; ok && prev != s.TraceID {
			t.Fatalf("frame %d appears under two trace IDs (%d and %d)", s.Frame, prev, s.TraceID)
		}
		frameTrace[s.Frame] = s.TraceID
	}

	uploaded := 0
	for i, ok := range res.Uploaded {
		if !ok {
			continue
		}
		uploaded++
		tid, found := frameTrace[i]
		if !found {
			t.Fatalf("uploaded frame %d has no trace", i)
		}
		names := map[string]obs.SpanRecord{}
		var root obs.SpanRecord
		for _, s := range byTrace[tid] {
			names[s.Site+"/"+s.Name] = s
			if s.Name == "frame" {
				root = s
			}
		}
		if root.SpanID == 0 {
			t.Fatalf("frame %d has no root frame span", i)
		}
		if root.ParentID != 0 {
			t.Errorf("frame %d root span has parent %d", i, root.ParentID)
		}
		for _, stage := range []string{
			"agent/motion", "agent/encode", "agent/emit", "agent/send",
			"edge/decode", "edge/detect", "edge/ack",
		} {
			s, ok := names[stage]
			if !ok {
				t.Errorf("frame %d trace %d missing span %s (have %v)", i, tid, stage, spanNames(byTrace[tid]))
				continue
			}
			if s.ParentID != root.SpanID {
				t.Errorf("frame %d span %s parent %d, want root %d", i, stage, s.ParentID, root.SpanID)
			}
		}
	}
	if uploaded == 0 {
		t.Fatal("no frames uploaded on a healthy link")
	}

	// The journal still carries one record per frame, tied to its trace,
	// with ack amendments landing on the right frame.
	recs := rec.Journal().Snapshot()
	if len(recs) != clip.NumFrames() {
		t.Fatalf("journal has %d records, want %d", len(recs), clip.NumFrames())
	}
	for i, ok := range res.Uploaded {
		if !ok {
			continue
		}
		j := recs[i]
		if j.Frame != i {
			t.Fatalf("journal record %d is for frame %d", i, j.Frame)
		}
		if tid := frameTrace[i]; j.TraceID != tid {
			t.Errorf("journal frame %d trace %d != span trace %d", i, j.TraceID, tid)
		}
		if j.AckBits == 0 || j.RealizedBWBps <= 0 {
			t.Errorf("uploaded frame %d journal missing ack feedback: %+v", i, j)
		}
	}
}

func spanNames(spans []obs.SpanRecord) []string {
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.Site+"/"+s.Name)
	}
	return out
}
