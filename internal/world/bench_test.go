package world

import (
	"math/rand"
	"testing"
)

func BenchmarkRenderFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := NuScenesLike()
	traj := p.Trajectory(rng)
	scene := buildScene(p, traj, rng)
	cam := NewCamera(p.focal(), p.W, p.H)
	rdr := NewRenderer(scene)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i%48) / p.FPS
		pose := traj.At(t)
		cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
		rdr.Render(cam, t, int64(i))
	}
}

func BenchmarkGenerateClip(b *testing.B) {
	p := NuScenesLike()
	p.ClipDuration = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateClip(p, int64(i))
	}
}
