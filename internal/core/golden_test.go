package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/netsim"
	"dive/internal/world"
)

// Agent golden corpus. testdata/agent_golden.json pins, for nuScenes-like
// and RobotCar-like 4 s clips at seeds 7 and 13, every frame's bitstream
// CRC-32, base QP and the boxes TrackLocally produced. It was generated at
// PR 22's parent commit (6dbce14) by this same file, so a pass proves that
// nothing since — the agent-owned analysis scratch, the value-typed RANSAC,
// the cut to one execution mode — changed an rng draw, a float operation or
// therefore a decision.
// Regenerate only for an intentional decision change:
// go test ./internal/core -run AgentGolden -update-golden.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/agent_golden.json")

const agentGoldenPath = "testdata/agent_golden.json"

type goldenFrame struct {
	CRC    uint32    `json:"crc"`
	BaseQP int       `json:"base_qp"`
	Boxes  [][4]int  `json:"boxes,omitempty"`
	Scores []float64 `json:"scores,omitempty"`
}

// goldenDetections is the fixed synthetic detection list the golden run
// feeds every fifth frame: boxes over textured road, over the horizon, on the
// border (clipped while tracking) and one too small to hold four vectors.
func goldenDetections(w, h int) []detect.Detection {
	return []detect.Detection{
		{Class: world.ClassCar, Box: imgx.NewRect(w/2-40, h/2, 80, 48), Score: 0.9},
		{Class: world.ClassCar, Box: imgx.NewRect(20, h/2+10, 64, 40), Score: 0.8},
		{Class: world.ClassPedestrian, Box: imgx.NewRect(w-50, h/2-20, 44, 70), Score: 0.7},
		{Class: world.ClassPedestrian, Box: imgx.NewRect(w/3, h/3, 20, 20), Score: 0.6},
		{Class: world.ClassCar, Box: imgx.NewRect(0, h-40, 70, 40), Score: 0.5},
	}
}

// runAgentGolden drives one clip through the frame loop the way sim.DiVE.Run
// does: bandwidth feedback and a forced I-frame every 29 frames after the
// encode, then tracking and the detection cache.
func runAgentGolden(t *testing.T, clip *world.Clip) []goldenFrame {
	t.Helper()
	cfg := DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Seed = clip.Seed
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bw := netsim.Mbps(1.5)
	dets := goldenDetections(clip.W, clip.H)
	out := make([]goldenFrame, clip.NumFrames())
	for i, frame := range clip.Frames {
		now := float64(i) / clip.FPS
		fr, err := agent.ProcessFrame(frame, now)
		if err != nil {
			t.Fatal(err)
		}
		agent.OnTransmitComplete(now, now+float64(fr.Encoded.NumBits)/bw, fr.Encoded.NumBits)
		if i%29 == 28 {
			agent.ForceNextIFrame()
		}
		g := goldenFrame{CRC: crc32.ChecksumIEEE(fr.Encoded.Data), BaseQP: fr.Encoded.BaseQP}
		for _, d := range agent.TrackLocally(fr.RawField) {
			if !d.Tracked {
				t.Fatalf("frame %d: untracked box out of TrackLocally", i)
			}
			g.Boxes = append(g.Boxes, [4]int{d.Box.MinX, d.Box.MinY, d.Box.MaxX, d.Box.MaxY})
			g.Scores = append(g.Scores, d.Score)
		}
		out[i] = g
		if i%5 == 0 {
			agent.OnDetections(dets)
		}
	}
	return out
}

func TestAgentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders four 4 s clips")
	}
	clips := map[string]*world.Clip{}
	for _, p := range []world.Profile{world.NuScenesLike(), world.RobotCarLike()} {
		p.ClipDuration = 4
		for _, seed := range []int64{7, 13} {
			clips[fmt.Sprintf("%s/%d", p.Name, seed)] = world.GenerateClip(p, seed)
		}
	}
	if *updateGolden {
		got := map[string][]goldenFrame{}
		for name, clip := range clips {
			got[name] = runAgentGolden(t, clip)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(agentGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(agentGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]goldenFrame
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(clips) {
		t.Fatalf("golden holds %d clips, want %d", len(want), len(clips))
	}
	for name, clip := range clips {
		got := runAgentGolden(t, clip)
		if len(got) != len(want[name]) {
			t.Fatalf("%s: %d frames, golden %d", name, len(got), len(want[name]))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[name][i]) {
				t.Fatalf("%s frame %d: %+v, golden %+v", name, i, got[i], want[name][i])
			}
		}
	}
}
