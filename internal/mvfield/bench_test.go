package mvfield

import (
	"math/rand"
	"testing"

	"dive/internal/codec"
	"dive/internal/geom"
	"dive/internal/world"
)

// kittiField is the flow field of the first moving frame pair of a
// KITTI-like clip: the previous frame encoded, the next one's motion
// analysed, as the agent does before it estimates anything.
func kittiField(b *testing.B) *Field {
	b.Helper()
	p := world.KITTILike()
	src := world.NewClipSource(p, 7)
	cfg := codec.DefaultConfig(p.W, p.H)
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < src.NumFrames(); i++ {
		frame, _, pose := src.Frame(i)
		if i > 0 && pose.State != world.MotionStatic {
			mf := enc.AnalyzeMotion(frame)
			if mf == nil {
				b.Fatal("no motion field")
			}
			return FromMotion(mf, src.Focal(), float64(p.W)/2, float64(p.H)/2, 0)
		}
		if _, err := enc.Encode(frame, codec.EncodeOptions{BaseQP: 16}); err != nil {
			b.Fatal(err)
		}
	}
	b.Fatal("the clip never moves")
	return nil
}

// BenchmarkEstimateRotation is the agent's rotation estimate (R-sampling,
// k = 70, RANSAC over Eq. 7) on a rendered moving KITTI-like field, with a
// warm scratch. A 0-alloc row of ci/alloc_baseline.json.
func BenchmarkEstimateRotation(b *testing.B) {
	f := kittiField(b)
	e := NewRotationEstimator()
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	if _, _, err := e.EstimateWith(&s, f, geom.Vec2{}, rng); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EstimateWith(&s, f, geom.Vec2{}, rng)
	}
}

// BenchmarkEstimateFOE is the agent's FOE fit on the same field after its
// rotation is removed, with a warm scratch. A 0-alloc row of
// ci/alloc_baseline.json.
func BenchmarkEstimateFOE(b *testing.B) {
	f := kittiField(b)
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	phiX, phiY, err := NewRotationEstimator().EstimateWith(&s, f, geom.Vec2{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	f = f.RemoveRotation(phiX, phiY)
	if _, err := EstimateFOEWith(&s, f, rng); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateFOEWith(&s, f, rng)
	}
}
