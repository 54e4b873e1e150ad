package dive

// Benchmarks over the paper's evaluation and over the public API.
// cmd/divebench runs the same experiments at larger scales with full output.

import (
	"sync"
	"testing"

	"dive/internal/experiments"
	"dive/internal/world"
)

const benchSeed = experiments.BaseSeed

var (
	benchClipOnce   sync.Once
	benchClipCached *world.Clip
)

// benchClip renders one nuScenes-flavored clip, shared across benchmarks.
func benchClip(b *testing.B) *world.Clip {
	b.Helper()
	benchClipOnce.Do(func() {
		p := world.NuScenesLike()
		p.ClipDuration = 2
		benchClipCached = world.GenerateClip(p, benchSeed)
	})
	return benchClipCached
}

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation at smoke scale, one sub-benchmark per registry entry, so `go
// test -bench=.` doubles as a timed reproduction run. The numbers themselves
// are printed by `divebench -scale smoke`, pinned by internal/experiments'
// testdata/registry_smoke.json and asserted directionally by its tests.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(experiments.ScaleSmoke, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Table().Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkAgentProcessFrame measures the per-frame cost of the full DiVE
// agent pipeline (motion analysis + foreground extraction + encode) on a
// nuScenes-sized frame — the number behind the paper's "lightweight agent"
// claim.
func BenchmarkAgentProcessFrame(b *testing.B) {
	clip := benchClip(b)
	agent, err := NewAgent(Config{
		Width: clip.W, Height: clip.H, FPS: clip.FPS, FocalPx: clip.Focal,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := clip.Frames[i%clip.NumFrames()]
		out, err := agent.Process(frame, float64(i)/clip.FPS)
		if err != nil {
			b.Fatal(err)
		}
		agent.AckUplink(float64(i)/clip.FPS, float64(i)/clip.FPS+0.02, out.Bits)
	}
}

// BenchmarkDecoder measures server-side decode throughput: each iteration
// decodes one whole encoded clip.
func BenchmarkDecoder(b *testing.B) {
	clip := benchClip(b)
	agent, err := NewAgent(Config{
		Width: clip.W, Height: clip.H, FPS: clip.FPS, FocalPx: clip.Focal,
	})
	if err != nil {
		b.Fatal(err)
	}
	var streams [][]byte
	for i, f := range clip.Frames {
		out, perr := agent.Process(f, float64(i)/clip.FPS)
		if perr != nil {
			b.Fatal(perr)
		}
		streams = append(streams, out.Bitstream)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, derr := NewDecoder(clip.W, clip.H)
		if derr != nil {
			b.Fatal(derr)
		}
		for _, s := range streams {
			if _, err := dec.Decode(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
