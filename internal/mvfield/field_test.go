package mvfield

import (
	"math"
	"math/rand"
	"testing"

	"dive/internal/codec"
	"dive/internal/geom"
)

// syntheticField builds a field on a mbw×mbh grid from a flow generator in
// centered coordinates.
func syntheticField(mbw, mbh int, focal float64, gen func(pos geom.Vec2) (geom.Vec2, bool)) *Field {
	f := &Field{MBW: mbw, MBH: mbh, Focal: focal, Vectors: make([]Vector, mbw*mbh)}
	cx := float64(mbw*codec.MBSize) / 2
	cy := float64(mbh*codec.MBSize) / 2
	for by := 0; by < mbh; by++ {
		for bx := 0; bx < mbw; bx++ {
			i := by*mbw + bx
			pos := geom.Vec2{
				X: float64(bx*codec.MBSize) + codec.MBSize/2 - cx,
				Y: float64(by*codec.MBSize) + codec.MBSize/2 - cy,
			}
			flow, valid := gen(pos)
			f.Vectors[i] = Vector{
				Pos: pos, Flow: flow,
				Valid: valid,
				Zero:  flow.IsZero(),
			}
		}
	}
	return f
}

// translationFlow yields the Eq. (3) flow for a forward translation with
// per-position depth supplied by depthAt.
func translationFlow(foe geom.Vec2, dz float64, depthAt func(geom.Vec2) float64) func(geom.Vec2) (geom.Vec2, bool) {
	return func(pos geom.Vec2) (geom.Vec2, bool) {
		z := depthAt(pos)
		if z <= 0 {
			return geom.Vec2{}, false
		}
		return pos.Sub(foe).Scale(dz / z), true
	}
}

func TestFromMotionConversion(t *testing.T) {
	mf := &codec.MotionField{
		MBW: 2, MBH: 1,
		MVs:   []codec.MV{{X: 3, Y: -2}, {X: 0, Y: 0}},
		Modes: []codec.MBMode{codec.ModeInter, codec.ModeSkip},
		SADs:  []int{100, 50},
	}
	f := FromMotion(mf, 250, 16, 8, 0)
	v0 := f.At(0, 0)
	// Flow is the negated MV.
	if v0.Flow != (geom.Vec2{X: -3, Y: 2}) {
		t.Errorf("flow = %v", v0.Flow)
	}
	// MB centers: (8,8) and (24,8) → centered (-8, 0) and (8, 0).
	if v0.Pos != (geom.Vec2{X: -8, Y: 0}) {
		t.Errorf("pos = %v", v0.Pos)
	}
	if !f.At(1, 0).Zero {
		t.Error("zero MV not flagged")
	}
	if eta := f.Eta(); eta != 0.5 {
		t.Errorf("eta = %v", eta)
	}
	// High-SAD vectors are invalid.
	mf.SADs[0] = MaxTrustedSAD + 1
	f = FromMotion(mf, 250, 16, 8, 0)
	if f.At(0, 0).Valid {
		t.Error("high-SAD vector should be invalid")
	}
}

func TestEtaEmptyField(t *testing.T) {
	f := &Field{}
	if f.Eta() != 0 {
		t.Error("empty field eta should be 0")
	}
}

func TestEstimateFOERecoversTruth(t *testing.T) {
	foe := geom.Vec2{X: 12, Y: -6}
	rng := rand.New(rand.NewSource(3))
	f := syntheticField(20, 12, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		z := 10 + rng.Float64()*60
		v := pos.Sub(foe).Scale(1.2 / z * 10)
		// Small measurement noise.
		v.X += rng.NormFloat64() * 0.2
		v.Y += rng.NormFloat64() * 0.2
		return v, true
	})
	got, err := EstimateFOE(f, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist(foe) > 4 {
		t.Errorf("FOE = %v, want ≈ %v", got, foe)
	}
}

func TestEstimateFOEWithOutliers(t *testing.T) {
	foe := geom.Vec2{X: 0, Y: 0}
	rng := rand.New(rand.NewSource(5))
	f := syntheticField(20, 12, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		if rng.Float64() < 0.25 {
			// Noise vectors from plain-texture regions: random directions.
			return geom.Vec2{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5}, true
		}
		z := 10 + rng.Float64()*40
		return pos.Sub(foe).Scale(15 / z), true
	})
	got, err := EstimateFOE(f, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist(foe) > 5 {
		t.Errorf("FOE with outliers = %v, want ≈ origin", got)
	}
}

func TestEstimateFOETooFewVectors(t *testing.T) {
	f := syntheticField(2, 2, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		return geom.Vec2{}, false
	})
	if _, err := EstimateFOE(f, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error with no usable vectors")
	}
}

func TestRemoveRotationInvertsRotationalFlow(t *testing.T) {
	const focal = 250
	phiX, phiY := 0.004, -0.011
	f := syntheticField(20, 12, focal, func(pos geom.Vec2) (geom.Vec2, bool) {
		return RotationalFlow(focal, pos.X, pos.Y, phiX, phiY), true
	})
	g := f.RemoveRotation(phiX, phiY)
	for i, v := range g.Vectors {
		if v.Flow.Norm() > 1e-9 {
			t.Fatalf("vector %d: residual flow %v after rotation removal", i, v.Flow)
		}
	}
}

func TestRotationEstimatorRecoversRotation(t *testing.T) {
	const focal = 250
	truePhiX, truePhiY := 0.003, -0.012
	rng := rand.New(rand.NewSource(7))
	dz := 1.0
	f := syntheticField(20, 12, focal, func(pos geom.Vec2) (geom.Vec2, bool) {
		z := 8 + rng.Float64()*50
		trans := pos.Scale(dz / z) // FOE at origin
		rot := RotationalFlow(focal, pos.X, pos.Y, truePhiX, truePhiY)
		flow := trans.Add(rot)
		flow.X += rng.NormFloat64() * 0.15
		flow.Y += rng.NormFloat64() * 0.15
		return flow, true
	})
	est := NewRotationEstimator()
	phiX, phiY, err := est.Estimate(f, geom.Vec2{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phiX-truePhiX) > 0.0015 || math.Abs(phiY-truePhiY) > 0.0015 {
		t.Errorf("rotation = (%v, %v), want (%v, %v)", phiX, phiY, truePhiX, truePhiY)
	}
}

func TestRSamplingBeatsRandomWithFewSamples(t *testing.T) {
	// The paper's Figure 7: with the same k, sampling near the FOE gives
	// lower error than random sampling because those vectors carry the
	// least translational contamination. Reproduce statistically.
	const focal = 250
	const trials = 30
	truePhiY := 0.010
	var errR, errRand float64
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		f := syntheticField(24, 14, focal, func(pos geom.Vec2) (geom.Vec2, bool) {
			// Depth shrinks away from center (nearby road at the bottom),
			// so peripheral vectors have large translational flow.
			z := 60 / (1 + pos.Norm()/80)
			trans := pos.Scale(1.4 / z)
			rot := RotationalFlow(focal, pos.X, pos.Y, 0, truePhiY)
			flow := trans.Add(rot)
			flow.X += rng.NormFloat64() * 0.3
			flow.Y += rng.NormFloat64() * 0.3
			return flow, true
		})
		er := &RotationEstimator{K: 30, Strategy: RSampling}
		_, phiYr, err := er.Estimate(f, geom.Vec2{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		en := &RotationEstimator{K: 30, Strategy: RandomSampling}
		_, phiYn, err := en.Estimate(f, geom.Vec2{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		errR += math.Abs(phiYr - truePhiY)
		errRand += math.Abs(phiYn - truePhiY)
	}
	if errR >= errRand {
		t.Errorf("R-sampling error %v not better than random %v", errR/trials, errRand/trials)
	}
}

func TestRotationEstimatorTooFewVectors(t *testing.T) {
	f := syntheticField(4, 2, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		return geom.Vec2{}, false
	})
	est := NewRotationEstimator()
	if _, _, err := est.Estimate(f, geom.Vec2{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected ErrNoRotation")
	}
}

func TestPointsToward(t *testing.T) {
	foe := geom.Vec2{}
	p := geom.Vec2{X: 10, Y: 10}
	if !PointsToward(p, geom.Vec2{X: 1, Y: 1}, foe, 0.95) {
		t.Error("radially-aligned flow rejected")
	}
	if PointsToward(p, geom.Vec2{X: -1, Y: -1}, foe, 0.95) {
		t.Error("anti-radial flow accepted")
	}
	if PointsToward(p, geom.Vec2{X: 1, Y: -1}, foe, 0.95) {
		t.Error("perpendicular flow accepted")
	}
	if PointsToward(foe, geom.Vec2{X: 1, Y: 0}, foe, 0.95) {
		t.Error("degenerate position accepted")
	}
}

func TestNormalizedMagnitudesGroundInvariant(t *testing.T) {
	// Eq. (8): ground macroblocks share a normalized magnitude of
	// ΔZ/(f·h); an object at a different height gets a different value.
	const focal = 250
	const h = 1.4 // camera height
	dz := 0.8
	foe := geom.Vec2{}
	f := syntheticField(20, 12, focal, translationFlow(foe, dz, func(pos geom.Vec2) float64 {
		if pos.Y <= 4 {
			return -1 // above horizon: invalid
		}
		return focal * h / pos.Y // ground depth
	}))
	norms := NormalizedMagnitudesInto(nil, f, foe)
	want := dz / (focal * h)
	seen := 0
	for _, n := range norms {
		if !n.OK {
			continue
		}
		seen++
		if math.Abs(n.Value-want)/want > 0.02 {
			t.Fatalf("ground normalized magnitude %v, want %v", n.Value, want)
		}
	}
	if seen < 40 {
		t.Fatalf("only %d valid normalized magnitudes", seen)
	}
}

func TestNormalizedMagnitudesFiltering(t *testing.T) {
	foe := geom.Vec2{}
	f := syntheticField(8, 8, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		if pos.Y <= 4 {
			return geom.Vec2{X: 3, Y: 0}, true // above-horizon junk
		}
		// Perpendicular to radial: should be filtered by the FOE test.
		r := pos.Sub(foe)
		return geom.Vec2{X: -r.Y, Y: r.X}.Scale(0.05), true
	})
	norms := NormalizedMagnitudesInto(nil, f, foe)
	for _, n := range norms {
		if n.OK {
			t.Fatalf("vector %d passed filtering but should not", n.Index)
		}
	}
}

func TestFOECalibrator(t *testing.T) {
	c := NewFOECalibrator()
	if c.FOE() != (geom.Vec2{}) {
		t.Error("prior should be the principal point")
	}
	c.Update(geom.Vec2{X: 500, Y: 0}) // beyond MaxRadius: rejected
	if c.FOE() != (geom.Vec2{}) {
		t.Errorf("out-of-radius update moved the prior: %v", c.FOE())
	}
	c.Update(geom.Vec2{X: 10, Y: 2}) // the first accepted update replaces the prior
	if c.FOE() != (geom.Vec2{X: 10, Y: 2}) {
		t.Errorf("first update: %v", c.FOE())
	}
	// Smoothing pulls toward later estimates slowly.
	c.Update(geom.Vec2{X: 0, Y: 0})
	got := c.FOE()
	if got.X != 9 || got.Y != 1.8 {
		t.Errorf("smoothed FOE = %v", got)
	}
	// Far-out estimates are rejected.
	c.Update(geom.Vec2{X: 500, Y: 0})
	if c.FOE() != got {
		t.Error("outlier FOE accepted")
	}
}

func TestSamplingString(t *testing.T) {
	if RSampling.String() != "r-sampling" || RandomSampling.String() != "random" || Sampling(0).String() != "unknown" {
		t.Error("Sampling names wrong")
	}
}

func TestRemoveRotationSkipsUnusableVectors(t *testing.T) {
	f := syntheticField(4, 4, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		return geom.Vec2{}, false // zero AND invalid
	})
	g := f.RemoveRotation(0.01, 0.01)
	for i, v := range g.Vectors {
		if !v.Flow.IsZero() {
			t.Fatalf("vector %d modified despite being unusable", i)
		}
	}
}

func TestFieldCloneIndependence(t *testing.T) {
	f := syntheticField(4, 4, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		return geom.Vec2{X: 1, Y: 1}, true
	})
	g := f.Clone()
	g.Vectors[0].Flow.X = 99
	if f.Vectors[0].Flow.X == 99 {
		t.Error("Clone shares vector storage")
	}
}

func TestFromMotionScaleConversion(t *testing.T) {
	// Half-pel MVs (Scale 2) must halve the reported flow.
	mf := &codec.MotionField{
		MBW: 1, MBH: 1,
		MVs:   []codec.MV{{X: -6, Y: 4}},
		Modes: []codec.MBMode{codec.ModeInter},
		SADs:  []int{10},
		Scale: 2,
	}
	f := FromMotion(mf, 250, 8, 8, 0)
	if f.Vectors[0].Flow != (geom.Vec2{X: 3, Y: -2}) {
		t.Errorf("flow = %v, want (3,-2)", f.Vectors[0].Flow)
	}
	// Scale 0 (older producers) defaults to 1.
	mf.Scale = 0
	f = FromMotion(mf, 250, 8, 8, 0)
	if f.Vectors[0].Flow != (geom.Vec2{X: 6, Y: -4}) {
		t.Errorf("flow = %v, want (6,-4)", f.Vectors[0].Flow)
	}
}
