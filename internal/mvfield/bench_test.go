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
func kittiField(tb testing.TB) *Field {
	tb.Helper()
	p := world.KITTILike()
	src := world.NewClipSource(p, 7)
	cfg := codec.DefaultConfig(p.W, p.H)
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < src.NumFrames(); i++ {
		frame, _, pose := src.Frame(i)
		if i > 0 && pose.State != world.MotionStatic {
			mf := enc.AnalyzeMotion(frame)
			if mf == nil {
				tb.Fatal("no motion field")
			}
			return FromMotion(mf, src.Focal(), float64(p.W)/2, float64(p.H)/2, 0)
		}
		if _, err := enc.Encode(frame, codec.EncodeOptions{BaseQP: 16}); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Fatal("the clip never moves")
	return nil
}

// estimateRotationOp returns the agent's rotation estimate (R-sampling,
// k = 70, RANSAC over Eq. 7) on kittiField, with a scratch warmed by one
// first estimate.
func estimateRotationOp(tb testing.TB) func() {
	f := kittiField(tb)
	e := NewRotationEstimator()
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	if _, _, err := e.EstimateWith(&s, f, geom.Vec2{}, rng); err != nil {
		tb.Fatal(err)
	}
	return func() { e.EstimateWith(&s, f, geom.Vec2{}, rng) }
}

// estimateFOEOp returns the agent's FOE fit on kittiField after its
// rotation is removed, with a scratch warmed by one first fit.
func estimateFOEOp(tb testing.TB) func() {
	f := kittiField(tb)
	var s Scratch
	rng := rand.New(rand.NewSource(1))
	phiX, phiY, err := NewRotationEstimator().EstimateWith(&s, f, geom.Vec2{}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	f = f.RemoveRotation(phiX, phiY)
	if _, err := EstimateFOEWith(&s, f, rng); err != nil {
		tb.Fatal(err)
	}
	return func() { EstimateFOEWith(&s, f, rng) }
}

// BenchmarkEstimateRotation times estimateRotationOp, which
// TestEstimatorsAllocateNothingWarm holds at 0 allocations.
func BenchmarkEstimateRotation(b *testing.B) {
	op := estimateRotationOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkEstimateFOE times estimateFOEOp, which
// TestEstimatorsAllocateNothingWarm holds at 0 allocations.
func BenchmarkEstimateFOE(b *testing.B) {
	op := estimateFOEOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
