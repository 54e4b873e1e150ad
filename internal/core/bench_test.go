package core

import (
	"fmt"
	"testing"

	"dive/internal/detect"
	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/world"
)

func BenchmarkExtractForeground(b *testing.B) {
	f := drivingSceneField(20, 12, 6, 5, 10, 8)
	cfg := DefaultForegroundConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fg := ExtractForeground(f, geom.Vec2{}, cfg); fg == nil {
			b.Fatal("extraction failed")
		}
	}
}

func BenchmarkTrackDetections(b *testing.B) {
	f := buildField(20, 12, 250, func(bx, by int, pos geom.Vec2) (geom.Vec2, bool) {
		return geom.Vec2{X: 3, Y: 1}, true
	})
	dets := randomDetectionsForBench()
	cfg := DefaultTrackConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrackDetections(dets, f, 160, 96, 320, 192, cfg)
	}
}

// randomDetectionsForBench builds a fixed detection set.
func randomDetectionsForBench() []detect.Detection {
	var out []detect.Detection
	for i := 0; i < 6; i++ {
		out = append(out, detect.Detection{
			Class: world.ClassCar,
			Box:   imgx.NewRect(30+i*40, 70+i*5, 40, 28),
			Score: 0.9,
		})
	}
	return out
}

// BenchmarkAgentResolution times the whole agent, a frame per ProcessFrame,
// over a nuScenes-like 2 s clip pre-rendered at the repo's working size, an
// intermediate one and the paper's native 1600 × 896: ms/frame, and rt_factor
// = camera period ÷ ms/frame — how many times over one core holds the
// dataset frame rate. The agent runs open-loop at its 2 Mbps bandwidth prior,
// inside the paper's 1–5 Mbps range at native size. EXPERIMENTS.md
// "Performance" has the committed table.
func BenchmarkAgentResolution(b *testing.B) {
	for _, size := range []struct{ w, h int }{{320, 192}, {800, 448}, {1600, 896}} {
		b.Run(fmt.Sprintf("%dx%d", size.w, size.h), func(b *testing.B) {
			p := world.NuScenesLike()
			p.W, p.H, p.ClipDuration = size.w, size.h, 2
			clip := world.GenerateClip(p, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent, err := NewAgent(DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal))
				if err != nil {
					b.Fatal(err)
				}
				for k, frame := range clip.Frames {
					if _, err := agent.ProcessFrame(frame, float64(k)/clip.FPS); err != nil {
						b.Fatal(err)
					}
				}
			}
			ms := b.Elapsed().Seconds() * 1000 / float64(b.N*clip.NumFrames())
			b.ReportMetric(ms, "ms/frame")
			b.ReportMetric(1000/clip.FPS/ms, "rt_factor")
		})
	}
}

// BenchmarkAgentProcessFrame is one steady-state iteration of the loop every
// transport runs (ProcessFrame, TrackLocally, OnTransmitComplete,
// OnDetections) per op, on steadyAgent's frames. TestAgentAllocsPerFrame
// holds the same frames to what the agent hands out, nothing else.
func BenchmarkAgentProcessFrame(b *testing.B) {
	agent, frames, fps := steadyAgent(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepAgent(b, agent, frames[i%len(frames)], float64(steadyWarm+i)/fps)
	}
}
