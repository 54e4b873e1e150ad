package mvfield

import (
	"math"
	"math/rand"
	"testing"

	"dive/internal/codec"
	"dive/internal/geom"
	"dive/internal/world"
)

// renderPair renders two consecutive frames of a simple scene with the
// given inter-frame ego motion and returns the codec motion field computed
// between them — the full real pipeline the analytics run on.
func renderPair(t *testing.T, dz, dyaw, dpitch float64) (*codec.MotionField, *world.Camera) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	scene := &world.Scene{
		GroundY: world.GroundPlaneY,
		GroundTex: world.RoadTexture{
			Seed: 11, LaneWidth: 3.5, DashLen: 2, DashPeriod: 6, HalfWidth: 7.5,
		},
		Sky: world.SkyTexture{Seed: 12},
	}
	// Plenty of static structure so the MV field is dense.
	for i := 0; i < 14; i++ {
		side := 1.0
		if i%2 == 0 {
			side = -1
		}
		scene.Objects = append(scene.Objects, world.NewStatic(
			i+1, world.ClassStructure,
			geom.Vec3{X: side * (9 + 3*rng.Float64()), Y: world.GroundPlaneY, Z: 8 + float64(i)*7},
			7+rng.Float64()*4, 5+rng.Float64()*4, 6,
			world.StripedTexture{Base: 130, Amplitude: 35, Period: 2.2, Seed: uint64(i) + 31},
		))
	}
	cam := world.NewCamera(260, 320, 192)
	rdr := world.NewRenderer(scene)
	rdr.NoiseStd = 1.0

	cam.SetPose(geom.Vec3{}, 0, 0)
	f0, _ := rdr.Render(cam, 0, 1)
	cam.SetPose(geom.Vec3{Z: dz}, dyaw, dpitch)
	f1, _ := rdr.Render(cam, 0, 2)

	cfg := codec.DefaultConfig(320, 192)
	cfg.Method = codec.MEHex
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(f0, codec.EncodeOptions{BaseQP: 12}); err != nil {
		t.Fatal(err)
	}
	mf := enc.AnalyzeMotion(f1)
	if mf == nil {
		t.Fatal("no motion field")
	}
	return mf, cam
}

func TestRealPipelineFOEUnderPureTranslation(t *testing.T) {
	mf, cam := renderPair(t, 1.2, 0, 0)
	f := FromMotion(mf, cam.F, cam.Cx(), cam.Cy(), 0)
	if eta := f.Eta(); eta < 0.3 {
		t.Fatalf("η = %v while moving, want substantial", eta)
	}
	foe, err := EstimateFOE(f, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Forward motion: FOE at the principal point (centered coords origin).
	if foe.Norm() > 12 {
		t.Errorf("FOE = %v, want near origin", foe)
	}
}

func TestRealPipelineEtaWhenStatic(t *testing.T) {
	mf, cam := renderPair(t, 0, 0, 0)
	f := FromMotion(mf, cam.F, cam.Cx(), cam.Cy(), 0)
	if eta := f.Eta(); eta > 0.15 {
		t.Errorf("η = %v for a static camera, want below the paper's 0.15 threshold", eta)
	}
}

func TestRealPipelineRotationRecovery(t *testing.T) {
	// Yaw while translating: R-sampling + RANSAC over Eq. (7) must recover
	// the rotation from integer codec MVs. This validates every sign
	// convention in the chain (renderer, codec MV, flow negation, Eq. 7).
	const dyaw = 0.015 // rad/frame → ≈ 3.9 px of rotational flow at f=260
	mf, cam := renderPair(t, 1.2, dyaw, 0)
	f := FromMotion(mf, cam.F, cam.Cx(), cam.Cy(), 0)
	est := NewRotationEstimator()
	phiX, phiY, err := est.Estimate(f, geom.Vec2{}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phiY-dyaw) > 0.3*dyaw+0.002 {
		t.Errorf("estimated yaw %v, want ≈ %v", phiY, dyaw)
	}
	if math.Abs(phiX) > 0.006 {
		t.Errorf("estimated pitch %v, want ≈ 0", phiX)
	}
	// After removing the rotation, the FOE of the corrected field is back
	// near the principal point.
	g := f.RemoveRotation(phiX, phiY)
	foe, err := EstimateFOE(g, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if foe.Norm() > 15 {
		t.Errorf("corrected FOE = %v, want near origin", foe)
	}
}

func TestRealPipelinePitchRecovery(t *testing.T) {
	const dpitch = 0.010
	mf, cam := renderPair(t, 1.2, 0, dpitch)
	f := FromMotion(mf, cam.F, cam.Cx(), cam.Cy(), 0)
	est := NewRotationEstimator()
	phiX, _, err := est.Estimate(f, geom.Vec2{}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phiX-dpitch) > 0.3*dpitch+0.002 {
		t.Errorf("estimated pitch %v, want ≈ %v", phiX, dpitch)
	}
}

func TestRealPipelineGroundNormalization(t *testing.T) {
	// On a pure forward translation the road's normalized magnitudes
	// cluster tightly around ΔZ/(f·h).
	dz := 1.2
	mf, cam := renderPair(t, dz, 0, 0)
	f := FromMotion(mf, cam.F, cam.Cx(), cam.Cy(), 0)
	norms := NormalizedMagnitudesInto(nil, f, geom.Vec2{})
	want := dz / (cam.F * world.GroundPlaneY)
	// Collect values of the bottom two MB rows, which can only be road.
	var groundVals []float64
	for _, n := range norms {
		if !n.OK {
			continue
		}
		if n.Index/f.MBW >= f.MBH-2 {
			groundVals = append(groundVals, n.Value)
		}
	}
	if len(groundVals) < 5 {
		t.Fatalf("only %d ground samples", len(groundVals))
	}
	med := geom.Median(groundVals)
	if math.Abs(med-want)/want > 0.35 {
		t.Errorf("ground normalized magnitude %v, want ≈ %v", med, want)
	}
}
