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

// BenchmarkProcessStream times the whole agent loop — on-demand frame
// rendering, analysis, entropy coding — over one clip per op, with the
// stages inline (depth=1) and overlapped by the frame pipeline (depth=3) at
// the default codec width; the ratio of the two is what the pipeline buys on
// this machine (at -cpu 1 both take the inline path). The pipeline must not
// change a bit: both depths have to emit the same total.
func BenchmarkProcessStream(b *testing.B) {
	p := world.RobotCarLike()
	p.ClipDuration = 2
	bits := map[int]int64{}
	for _, depth := range []int{1, 3} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var frames int
			for i := 0; i < b.N; i++ {
				src := world.NewClipSource(p, 7)
				agent, err := NewAgent(DefaultAgentConfig(p.W, p.H, p.FPS, src.Focal()))
				if err != nil {
					b.Fatal(err)
				}
				var total int64
				frames = src.NumFrames()
				_, err = agent.ProcessStream(frames, depth,
					func(i int) (*imgx.Plane, float64) {
						frame, _, _ := src.Frame(i)
						return frame, float64(i) / p.FPS
					},
					nil,
					func(i int, fr *FrameResult) error {
						total += int64(fr.Encoded.NumBits)
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
				bits[depth] = total
			}
			b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N*frames), "ms/frame")
		})
	}
	if len(bits) == 2 && bits[1] != bits[3] {
		b.Fatalf("pipelined run emitted %d bits, serial %d — determinism broken", bits[3], bits[1])
	}
}

// BenchmarkAgentProcessFrame is one steady-state iteration of the loop every
// transport runs (ProcessFrame, TrackLocally, OnTransmitComplete,
// OnDetections) per op, at one worker and at the default width. Its
// allocs/op is a row of ci/alloc_baseline.json: what the agent hands out,
// nothing else.
func BenchmarkAgentProcessFrame(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			agent, frames, fps := steadyAgent(b, tc.workers, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepAgent(b, agent, frames[i%len(frames)], float64(steadyWarm+i)/fps)
			}
		})
	}
}
