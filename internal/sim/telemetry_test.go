package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

// TestTelemetryFrameLifecycle runs the full DiVE scheme over a short clip
// with a recorder attached and checks the frame-lifecycle export — the view
// derived from the journal and the agent spans: one JSONL record per frame,
// monotonically increasing frame numbers, non-negative stage durations, a
// metrics snapshot consistent with the run, and every derived field equal to
// the journal record or span it was read from.
func TestTelemetryFrameLifecycle(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 2, 21)
	n := clip.NumFrames()
	rec := obs.NewRecorder(n)
	scheme := &DiVE{ConfigFn: func(c *core.AgentConfig) { c.Obs = rec }}
	env := NewEnv(7)
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	if _, err := scheme.Run(clip, link, env); err != nil {
		t.Fatal(err)
	}

	if got := rec.Journal().Total(); got != n {
		t.Fatalf("journal total = %d, want one record per frame (%d)", got, n)
	}
	if got := rec.Counter(obs.MetricFrames).Value(); got != int64(n) {
		t.Errorf("frames counter = %d, want %d", got, n)
	}

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec.FrameRecords()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines, prev := 0, -1
	for sc.Scan() {
		var fr obs.FrameRecord
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if fr.Frame <= prev {
			t.Errorf("frame numbers not monotonic: %d after %d", fr.Frame, prev)
		}
		prev = fr.Frame
		for _, d := range []struct {
			name string
			ms   float64
		}{
			{"motion", fr.MotionMs}, {"rotation", fr.RotationMs},
			{"foreground", fr.ForegroundMs}, {"encode", fr.EncodeMs},
			{"total", fr.TotalMs},
		} {
			if d.ms < 0 {
				t.Errorf("frame %d: %s duration %v ms < 0", fr.Frame, d.name, d.ms)
			}
		}
		if fr.TotalMs < fr.EncodeMs {
			t.Errorf("frame %d: total %.3fms < encode %.3fms", fr.Frame, fr.TotalMs, fr.EncodeMs)
		}
		if fr.Type != "I" && fr.Type != "P" {
			t.Errorf("frame %d: type %q", fr.Frame, fr.Type)
		}
		if fr.Bits <= 0 {
			t.Errorf("frame %d: bits = %d", fr.Frame, fr.Bits)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != n {
		t.Errorf("JSONL lines = %d, want %d", lines, n)
	}

	// The first frame must be intra, and the intra counter must agree with
	// the per-frame records.
	snap := rec.FrameRecords()
	if snap[0].Type != "I" {
		t.Errorf("first frame type %q, want I", snap[0].Type)
	}
	intra := 0
	for _, fr := range snap {
		if fr.Type == "I" {
			intra++
		}
	}
	if got := rec.Counter(obs.MetricIFrames).Value(); got != int64(intra) {
		t.Errorf("iframe counter = %d, records show %d", got, intra)
	}

	// The view stores nothing of its own: each line's decision fields are the
	// frame's journal record, and each duration is the agent span of that
	// name in the frame's trace (absent span: the stage did not run, 0).
	journal := rec.Journal().Snapshot()
	spanMs := map[uint64]map[string]float64{}
	for _, s := range rec.Spans().Snapshot() {
		if s.Site != "agent" {
			continue
		}
		if spanMs[s.TraceID] == nil {
			spanMs[s.TraceID] = map[string]float64{}
		}
		spanMs[s.TraceID][s.Name] = s.DurSec * 1000
	}
	acked := 0
	for i, fr := range snap {
		j, ms := journal[i], spanMs[journal[i].TraceID]
		want := obs.FrameRecord{
			Frame: j.Frame, TimeSec: j.TimeSec, Type: j.Type,
			Eta: j.Eta, Moving: j.Moving, ReusedFG: j.FGReused, FGFraction: j.FGFraction, Delta: j.Delta,
			BaseQP: j.BaseQP, Bits: j.Bits, TargetBits: j.TargetBits, EstBWBps: j.EstBWBps,
			MotionMs: ms["motion"], RotationMs: ms["rotation"], ForegroundMs: ms["foreground"],
			EncodeMs: ms["encode"], EmitMs: ms["emit"], TotalMs: ms["frame"],
			AckBits: j.AckBits, AckEndSec: j.AckEndSec,
		}
		if fr != want {
			t.Errorf("frame %d: derived line %+v != journal ⨝ spans %+v", j.Frame, fr, want)
		}
		if fr.MotionMs <= 0 || fr.EmitMs <= 0 || fr.TotalMs <= 0 {
			t.Errorf("frame %d: a stage every frame runs reads 0: %+v", j.Frame, fr)
		}
		if fr.AckBits > 0 {
			acked++
		}
	}
	if acked == 0 {
		t.Error("no derived line carries the uplink ack the journal was amended with")
	}

	// The stage histograms populated once per frame must have n samples.
	s := rec.Snapshot()
	for _, name := range []string{obs.StageFrame, obs.StageEncode} {
		hs, ok := s.Histograms[name]
		if !ok {
			t.Errorf("snapshot missing histogram %s", name)
			continue
		}
		if hs.Count != int64(n) {
			t.Errorf("%s count = %d, want %d", name, hs.Count, n)
		}
	}
}

// TestTelemetryDisabledRunsIdentically verifies the no-recorder path still
// produces a working run (no telemetry side effects required anywhere).
func TestTelemetryDisabledRunsIdentically(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 2, 21)
	env := NewEnv(7)
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	res, err := (&DiVE{}).Run(clip, link, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBits() <= 0 {
		t.Error("no bits sent")
	}
}
