package mvfield

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dive/internal/geom"
)

// residualInliers is the specification of Inliers: every i whose residual
// is ≤ thr, in index order, appended to dst.
func residualInliers[P any](n int, residual func(int, P) float64, p P, thr float64, dst []int) []int {
	for i := 0; i < n; i++ {
		if residual(i, p) <= thr {
			dst = append(dst, i)
		}
	}
	return dst
}

// checkFOEInliers compares foeModel.Inliers with the Residual loop, into an
// empty buffer and after a prefix that must survive untouched.
func checkFOEInliers(t *testing.T, m foeModel, foe geom.Vec2, thr float64) {
	t.Helper()
	for _, prefix := range [][]int{nil, {-7, -8}} {
		want := residualInliers(m.Len(), m.Residual, foe, thr, slices.Clone(prefix))
		got := m.Inliers(foe, thr, slices.Clone(prefix))
		if !slices.Equal(got, want) {
			t.Fatalf("foe %v thr %v over %d vectors: Inliers %v, Residual loop %v", foe, thr, m.Len(), got, want)
		}
	}
}

func checkRotInliers(t *testing.T, m rotModel, p rotParams, thr float64) {
	t.Helper()
	for _, prefix := range [][]int{nil, {-7, -8}} {
		want := residualInliers(m.Len(), m.Residual, p, thr, slices.Clone(prefix))
		got := m.Inliers(p, thr, slices.Clone(prefix))
		if !slices.Equal(got, want) {
			t.Fatalf("params %+v thr %v over %d points: Inliers %v, Residual loop %v", p, thr, m.Len(), got, want)
		}
	}
}

// nearThreshold returns a flow whose residual about foe at pos is thr·scale,
// so a sweep of scales around 1 lands points inside the predicate's margin.
func nearThreshold(pos, foe geom.Vec2, thr, scale, along float64) geom.Vec2 {
	r := pos.Sub(foe)
	n := r.Norm()
	perp := geom.Vec2{X: r.Y / n, Y: -r.X / n}
	return perp.Scale(thr * scale).Add(r.Scale(along / n))
}

var edgeFloats = []float64{0, math.Copysign(0, -1), 1e-300, 5e-324, 1e-9, 1e200, -1e200,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// TestFOEInliersMatchResidual holds foeModel.Inliers to the Residual loop it
// replaces: on random fields with points placed within a few ulps of the
// threshold, and on the constructed edges — a point exactly on the
// threshold and one ulp either side, a FOE on a vector's position, FOEs at
// 1e200, ±Inf and NaN, and thr = 0.
func TestFOEInliersMatchResidual(t *testing.T) {
	// r = (3, 4), |r| = 5, flow × r = 2.5·4 = 10: a residual of exactly 2.
	on := Vector{Pos: geom.Vec2{X: 3, Y: 4}, Flow: geom.Vec2{X: 2.5}}
	above, below := on, on
	above.Flow.X = math.Nextafter(2.5, 3)
	below.Flow.X = math.Nextafter(2.5, 2)
	m := foeModel{vecs: []Vector{on, above, below, {Pos: geom.Vec2{X: -3, Y: 4}, Flow: geom.Vec2{X: 3}}}}
	for _, thr := range []float64{2, math.Nextafter(2, 3), math.Nextafter(2, 1), 0, math.Copysign(0, -1), -1} {
		checkFOEInliers(t, m, geom.Vec2{}, thr)
	}
	if got := m.Inliers(geom.Vec2{}, 2, nil); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("on / above / below the threshold: inliers %v, want [0 2]", got)
	}
	// The FOE on a vector's position, or within 1e-9 of it across its flow:
	// Residual's n < 1e-9 rule says 0 where c²/s alone would reject.
	for _, thr := range []float64{2, 0, -1} {
		checkFOEInliers(t, m, on.Pos, thr)
		checkFOEInliers(t, m, on.Pos.Add(geom.Vec2{X: 1e-10}), thr)
		checkFOEInliers(t, m, on.Pos.Add(geom.Vec2{Y: 1e-10}), thr)
	}
	for _, x := range edgeFloats {
		for _, y := range []float64{0, 4, x} {
			for _, thr := range []float64{2, 0, 1e-200, 1e200, math.Inf(1), math.NaN()} {
				checkFOEInliers(t, m, geom.Vec2{X: x, Y: y}, thr)
			}
		}
	}

	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 2000; trial++ {
		foe := geom.Vec2{X: rng.NormFloat64() * 40, Y: rng.NormFloat64() * 30}
		thr := []float64{2, 1, 0.5, 1e-3, rng.Float64() * 8}[rng.Intn(5)]
		m := foeModel{}
		for i := 0; i < 1+rng.Intn(240); i++ {
			pos := geom.Vec2{X: float64(rng.Intn(20))*16 - 152, Y: float64(rng.Intn(12))*16 - 88}
			var flow geom.Vec2
			switch rng.Intn(3) {
			case 0: // anywhere
				flow = geom.Vec2{X: rng.NormFloat64() * 6, Y: rng.NormFloat64() * 6}
			case 1: // within a few ulps of the threshold
				scale := 1 + float64(rng.Intn(9)-4)*0x1p-52
				flow = nearThreshold(pos, foe, thr, scale, rng.NormFloat64()*6)
			default: // quarter-pel flow, as the codec's vectors are
				flow = geom.Vec2{X: float64(rng.Intn(65)-32) / 4, Y: float64(rng.Intn(65)-32) / 4}
			}
			m.vecs = append(m.vecs, Vector{Pos: pos, Flow: flow})
		}
		checkFOEInliers(t, m, foe, thr)
	}
}

// TestRotInliersMatchResidual holds rotModel.Inliers to the Residual loop on
// random points and on the constructed edges: a residual exactly on the
// threshold and one ulp either side, non-finite parameters and thr = 0.
func TestRotInliersMatchResidual(t *testing.T) {
	// (3·1 + 4·1 − 2) / 5 = 1.
	on := rotPoint{ax: 3, ay: 4, rhs: 2, lever: 5}
	above, below := on, on
	above.lever = math.Nextafter(5, 4)
	below.lever = math.Nextafter(5, 6)
	m := rotModel{pts: []rotPoint{on, above, below}}
	if got := m.Inliers(rotParams{1, 1}, 1, nil); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("on / above / below the threshold: inliers %v, want [0 2]", got)
	}
	for _, x := range edgeFloats {
		for _, thr := range []float64{1, math.Nextafter(1, 2), math.Nextafter(1, 0), 0, -1, math.Inf(1), math.NaN()} {
			checkRotInliers(t, m, rotParams{x, 1}, thr)
			checkRotInliers(t, m, rotParams{1, x}, thr)
		}
	}

	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		m := rotModel{}
		for i := 0; i < 1+rng.Intn(100); i++ {
			v := Vector{
				Pos:  geom.Vec2{X: float64(rng.Intn(20))*16 - 152, Y: float64(rng.Intn(12))*16 - 88},
				Flow: geom.Vec2{X: rng.NormFloat64() * 4, Y: rng.NormFloat64() * 4},
			}
			m.pts = append(m.pts, newRotPoint(v, 250))
		}
		p := rotParams{rng.NormFloat64() * 0.01, rng.NormFloat64() * 0.01}
		checkRotInliers(t, m, p, []float64{1, 0.25, 0, rng.Float64() * 4}[rng.Intn(4)])
	}
}

// FuzzFOEInliers runs the predicate on arbitrary float64s: a FOE, a
// threshold and two flows at one position, then with the FOE on it.
func FuzzFOEInliers(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 3.0, 4.0, 2.5, 0.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 2.0, 3.0, 4.0, math.Nextafter(2.5, 3), 0.0, 1.0, 1.0)
	f.Add(3.0, 4.0, 2.0, 3.0, 4.0, 2.5, 0.0, 1.0, 1.0)
	f.Add(1e200, 0.0, 2.0, 3.0, 4.0, 2.5, 0.0, -1.0, 1.0)
	f.Add(math.Inf(1), math.Inf(-1), 2.0, 3.0, 4.0, 2.5, 0.0, 1.0, 1.0)
	f.Add(math.NaN(), 0.0, 2.0, 3.0, 4.0, 2.5, 0.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 1e-200, 1e-160, 0.0, 0.0, 1e-160, 1e150, 1e-150)
	f.Fuzz(func(t *testing.T, foeX, foeY, thr, px, py, fx, fy, gx, gy float64) {
		pos := geom.Vec2{X: px, Y: py}
		m := foeModel{vecs: []Vector{
			{Pos: pos, Flow: geom.Vec2{X: fx, Y: fy}},
			{Pos: pos, Flow: geom.Vec2{X: gx, Y: gy}},
		}}
		checkFOEInliers(t, m, geom.Vec2{X: foeX, Y: foeY}, thr)
		checkFOEInliers(t, m, pos, thr)
	})
}
