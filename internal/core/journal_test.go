package core

import (
	"reflect"
	"testing"

	"dive/internal/obs"
	"dive/internal/world"
)

// TestTransportFeedbackAmendsTheRightRecord pins which journal record the
// transport's feedback lands on, through a 4-record journal ring that wraps
// several times: OnTransmitComplete and ForceNextIFrame amend the record of
// the agent's newest frame and no other, NoteOutageAt only the older frame it
// names (nothing once that frame is evicted), and before the first frame all
// three leave the journal as they found it.
func TestTransportFeedbackAmendsTheRightRecord(t *testing.T) {
	p := world.NuScenesLike()
	p.ClipDuration = 1.5
	clip := world.GenerateClip(p, 5)
	if clip.NumFrames() < 10 {
		t.Fatalf("clip has %d frames, want at least 10", clip.NumFrames())
	}
	rec := obs.NewRecorder(4)
	cfg := DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Obs = rec
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}

	agent.OnTransmitComplete(0, 0.01, 1000)
	agent.NoteOutageAt(0, 0.5, 3)
	agent.ForceNextIFrame()
	if n := rec.Journal().Total(); n != 0 {
		t.Fatalf("feedback before the first frame journaled %d records", n)
	}

	byFrame := func() map[int]obs.JournalRecord {
		m := map[int]obs.JournalRecord{}
		for _, j := range rec.Journal().Snapshot() {
			m[j.Frame] = j
		}
		return m
	}
	// amended runs fn and checks that exactly the record of frame want (−1:
	// none) changed, returning it.
	amended := func(what string, want int, fn func()) obs.JournalRecord {
		t.Helper()
		before := byFrame()
		fn()
		after := byFrame()
		var got obs.JournalRecord
		for f, j := range after {
			changed := !reflect.DeepEqual(j, before[f])
			switch {
			case changed && f != want:
				t.Errorf("%s changed the record of frame %d, want only %d", what, f, want)
			case !changed && f == want:
				t.Errorf("%s left the record of frame %d unchanged", what, f)
			}
			if f == want {
				got = j
			}
		}
		return got
	}

	for i, frame := range clip.Frames[:10] {
		now := float64(i) / clip.FPS
		res, err := agent.ProcessFrame(frame, now)
		if err != nil {
			t.Fatal(err)
		}
		if idx := res.Encoded.Index; idx != i {
			t.Fatalf("frame %d encoded as index %d", i, idx)
		}
		if i == 0 {
			if j := byFrame()[0]; j.AckBits != 0 || j.ForcedIFrame || j.Outage {
				t.Errorf("frame 0 carries feedback given before it was encoded: %+v", j)
			}
		}
		bits, end := res.Encoded.NumBits, now+0.02
		j := amended("OnTransmitComplete", i, func() { agent.OnTransmitComplete(now, end, bits) })
		if bw := float64(bits) / (end - now); j.AckBits != bits || j.RealizedBWBps != bw {
			t.Errorf("frame %d: ack %d bits at %.0f bit/s, want %d at %.0f", i, j.AckBits, j.RealizedBWBps, bits, bw)
		}
		if i >= 2 {
			j := amended("NoteOutageAt", i-2, func() { agent.NoteOutageAt(i-2, 0.4, 2) })
			if !j.Outage || j.QueueDelaySec != 0.4 || j.TrackedBoxes != 2 {
				t.Errorf("frame %d's outage not journaled: %+v", i-2, j)
			}
		}
		if i >= 4 {
			amended("NoteOutageAt on an evicted frame", -1, func() { agent.NoteOutageAt(i-4, 0.4, 2) })
		}
		if i%3 == 1 {
			if j := amended("ForceNextIFrame", i, agent.ForceNextIFrame); !j.ForcedIFrame {
				t.Errorf("frame %d: ForcedIFrame not set", i)
			}
		}
	}
	if n := rec.Journal().Total(); n != 10 {
		t.Errorf("journal total = %d, want 10", n)
	}
}
