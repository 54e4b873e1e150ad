package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dive/internal/codec"
	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

// pipelineLink builds the link used by the pipeline determinism tests: a
// constant-rate uplink with a periodic outage, so the comparison covers the
// outage path (forced I-frames, local tracking) as well as steady state.
func pipelineLink() *netsim.Link {
	return netsim.NewLink(&netsim.OutageTrace{
		Inner: netsim.ConstantTrace(netsim.Mbps(2)),
		Start: 0.6, Interval: 1.6, Duration: 0.5,
	}, 0.012)
}

// TestPipelinedRunMatchesSerial is the output contract of the frame
// pipeline at the system level: for every ME method and dataset profile, the
// overlapped DiVE run (depth 2, 3) must reproduce the inline run (depth 1 —
// the same stages, one frame after the other) exactly: byte-identical
// bitstreams, identical detections, response times and upload decisions, and
// — under the outage trace, where the outage fields are amended at delivery
// — a decision journal that is equal field by field. The independent serial
// reference is the repo benchmark's own agent loop, whose checkAgainstSim
// holds sim.DiVE to it payload by payload (make benchmark-test).
func TestPipelinedRunMatchesSerial(t *testing.T) {
	profiles := []world.Profile{world.NuScenesLike(), world.KITTILike()}
	for _, profile := range profiles {
		clip := testClip(t, profile, 1.2, 19)
		for _, method := range codec.AllMEMethods() {
			run := func(depth int) (*Result, []obs.JournalRecord) {
				env := NewEnv(9)
				rec := obs.NewRecorder(clip.NumFrames())
				scheme := &DiVE{
					ConfigFn: func(cfg *core.AgentConfig) {
						cfg.Codec.Method = method
						cfg.Obs = rec
					},
					PipelineDepth: depth, KeepPayloads: true,
				}
				res, err := scheme.Run(clip, pipelineLink(), env)
				if err != nil {
					t.Fatalf("%s/%s depth %d: %v", profile.Name, method, depth, err)
				}
				return res, rec.Journal().Snapshot()
			}
			want, wantJournal := run(1) // the stages inline
			outages := 0
			for _, j := range wantJournal {
				if j.Outage {
					outages++
				}
			}
			if outages == 0 {
				t.Fatalf("%s/%s: the outage trace journaled no outage", profile.Name, method)
			}
			for _, depth := range []int{2, 3} {
				got, gotJournal := run(depth)
				for i := 0; i < clip.NumFrames(); i++ {
					tag := fmt.Sprintf("%s/%s depth %d frame %d", profile.Name, method, depth, i)
					if !bytes.Equal(want.Payloads[i], got.Payloads[i]) {
						t.Fatalf("%s: bitstream differs (%d vs %d bytes)",
							tag, len(got.Payloads[i]), len(want.Payloads[i]))
					}
					if want.Uploaded[i] != got.Uploaded[i] || want.BitsSent[i] != got.BitsSent[i] {
						t.Fatalf("%s: upload decision differs (uploaded %v/%v, bits %d/%d)",
							tag, got.Uploaded[i], want.Uploaded[i], got.BitsSent[i], want.BitsSent[i])
					}
					if want.ResponseTimes[i] != got.ResponseTimes[i] {
						t.Fatalf("%s: response time %v != %v", tag, got.ResponseTimes[i], want.ResponseTimes[i])
					}
					if len(want.Detections[i]) != len(got.Detections[i]) {
						t.Fatalf("%s: %d detections, want %d", tag, len(got.Detections[i]), len(want.Detections[i]))
					}
					for k := range want.Detections[i] {
						if want.Detections[i][k] != got.Detections[i][k] {
							t.Fatalf("%s: detection %d differs", tag, k)
						}
					}
				}
				if len(gotJournal) != len(wantJournal) {
					t.Fatalf("%s/%s depth %d: journal has %d records, want %d", profile.Name, method, depth, len(gotJournal), len(wantJournal))
				}
				for i := range wantJournal {
					w, g := reflect.ValueOf(wantJournal[i]), reflect.ValueOf(gotJournal[i])
					for f := 0; f < w.NumField(); f++ {
						if !reflect.DeepEqual(w.Field(f).Interface(), g.Field(f).Interface()) {
							t.Fatalf("%s/%s depth %d frame %d: journal field %s = %v, want %v", profile.Name, method, depth, i,
								w.Type().Field(f).Name, g.Field(f).Interface(), w.Field(f).Interface())
						}
					}
				}
			}
		}
	}
}

// TestPipelinedTraceParentage is the pipeline-era tracing contract: with
// depth >= 2, stage B/C spans are recorded on different goroutines than the
// stage-A goroutine that minted the frame's trace, yet every stage span —
// including the deferred "emit" span and the edge-side spans — must still
// parent onto the frame's root span under a single trace ID.
func TestPipelinedTraceParentage(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 2, 21)
	env := NewEnv(6)
	rec := obs.NewRecorder(clip.NumFrames())
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(3)), 0.012)
	link.Obs = rec
	scheme := &DiVE{
		ConfigFn:      func(cfg *core.AgentConfig) { cfg.Obs = rec },
		PipelineDepth: 3,
	}
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
		// Stage A mints the trace; stage B records motion/encode/send;
		// stage C records emit/decode/detect/ack — all must stay children
		// of the stage-A root span.
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
	// with ack amendments landing on the right (not merely the latest)
	// frame despite the pipelined recording order.
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
