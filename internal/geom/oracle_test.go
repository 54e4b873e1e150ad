package geom

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleConvexHull is ConvexHull as it stood before the working buffers
// moved into a caller-owned scratch: a fresh copy sorted with sort.Slice, a
// fresh 2n working hull returned as is.
func oracleConvexHull(points []Vec2) []Vec2 {
	pts := make([]Vec2, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
	// Deduplicate.
	uniq := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			uniq = append(uniq, p)
		}
	}
	pts = uniq
	n := len(pts)
	if n < 3 {
		out := make([]Vec2, n)
		copy(out, pts)
		return out
	}
	hull := make([]Vec2, 0, 2*n)
	// Lower hull.
	for _, p := range pts {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := pts[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// oracleLeastSquares2 is LeastSquares2 as it stood before the sums moved
// into Normal2.
func oracleLeastSquares2(a [][2]float64, b []float64) (u [2]float64, err error) {
	if len(a) != len(b) {
		return u, errors.New("geom: dimension mismatch")
	}
	if len(a) < 2 {
		return u, errors.New("geom: need at least two equations")
	}
	var s11, s12, s22, t1, t2 float64
	for i, row := range a {
		s11 += row[0] * row[0]
		s12 += row[0] * row[1]
		s22 += row[1] * row[1]
		t1 += row[0] * b[i]
		t2 += row[1] * b[i]
	}
	x, y, err := Solve2x2(s11, s12, s12, s22, t1, t2)
	if err != nil {
		return u, err
	}
	return [2]float64{x, y}, nil
}

// TestConvexHullMatchesOracle compares AppendConvexHull, on a fresh scratch and on
// one carried dirty through every case in whatever size order the seeds give,
// with the oracle over random point sets on a small integer grid: duplicates,
// collinear runs and fewer than three distinct points all occur.
func TestConvexHullMatchesOracle(t *testing.T) {
	var dirty HullScratch
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		span := 1 + rng.Intn(12)
		pts := make([]Vec2, n)
		for i := range pts {
			pts[i] = Vec2{float64(rng.Intn(span)), float64(rng.Intn(1 + span/2))}
		}
		in := append(make([]Vec2, 0, n), pts...)
		want := oracleConvexHull(pts)
		for name, s := range map[string]*HullScratch{"fresh": nil, "dirty": &dirty} {
			got := AppendConvexHull(nil, s, pts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: hull %v, oracle %v", seed, name, got, want)
			}
			// Appended to other hulls, it leaves them alone.
			if two := AppendConvexHull(got, s, pts); !reflect.DeepEqual(two[:len(want)], want) || !reflect.DeepEqual(two[len(want):], want) {
				t.Fatalf("seed %d %s: appended hull %v, want the oracle's %v twice", seed, name, two, want)
			}
			if !reflect.DeepEqual(pts, in) {
				t.Fatalf("seed %d %s: input reordered", seed, name)
			}
		}
	}
	pts := []Vec2{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}}
	arena := make([]Vec2, 0, 8)
	if allocs := testing.AllocsPerRun(20, func() { arena = AppendConvexHull(arena[:0], &dirty, pts) }); allocs != 0 {
		t.Errorf("AppendConvexHull on a warm scratch and arena: %.0f allocs, want 0", allocs)
	}
}

// TestNormalEquationsMatchOracle holds the streamed accumulators to the
// materialised solvers bit for bit: Normal2 against the old LeastSquares2,
// Normal3 against LeastSquares, and PermInto against rng.Perm.
func TestNormalEquationsMatchOracle(t *testing.T) {
	var perm []int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		var a2 [][2]float64
		var a3 [][]float64
		var b []float64
		var q2 Normal2
		var q3 Normal3
		for i := 0; i < n; i++ {
			r := [3]float64{float64(rng.Intn(3)), rng.NormFloat64(), rng.NormFloat64() * 50}
			if rng.Intn(4) == 0 && i > 0 {
				r = [3]float64{a3[i-1][0], a3[i-1][1], a3[i-1][2]} // repeated rows: singular systems
			}
			rhs := rng.NormFloat64()
			a2 = append(a2, [2]float64{r[0], r[1]})
			a3 = append(a3, r[:])
			b = append(b, rhs)
			q2.Add(r[0], r[1], rhs)
			q3.Add(r, rhs)
		}
		want2, werr := oracleLeastSquares2(a2, b)
		x, y, gerr := q2.Solve()
		got2, lerr := LeastSquares2(a2, b)
		if (gerr == nil) != (werr == nil) || (lerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: Normal2 err %v, LeastSquares2 err %v, oracle %v", seed, gerr, lerr, werr)
		}
		if werr == nil && ([2]float64{x, y} != want2 || got2 != want2) {
			t.Fatalf("seed %d: Normal2 (%v, %v), LeastSquares2 %v, oracle %v", seed, x, y, got2, want2)
		}
		want3, werr := LeastSquares(a3, b)
		got3, gerr := q3.Solve()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: Normal3 err %v, LeastSquares %v", seed, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got3[:], want3) {
			t.Fatalf("seed %d: Normal3 %v, LeastSquares %v", seed, got3, want3)
		}

		rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		perm = PermInto(perm, n*7%40, rngA)
		if want := rngB.Perm(n * 7 % 40); !reflect.DeepEqual(append([]int{}, perm...), append([]int{}, want...)) {
			t.Fatalf("seed %d: PermInto %v, rng.Perm %v", seed, perm, want)
		}
		if rngA.Int63() != rngB.Int63() {
			t.Fatalf("seed %d: PermInto drew differently from rng.Perm", seed)
		}
	}
}
