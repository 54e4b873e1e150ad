package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVec2Basics(t *testing.T) {
	v := Vec2{3, 4}
	w := Vec2{-1, 2}
	if got := v.Add(w); got != (Vec2{2, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec2{4, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec2{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 5 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != 10 {
		t.Errorf("Cross = %v", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if !v.Sub(v).IsZero() {
		t.Error("v-v should be zero")
	}
}

func TestVec3Basics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Cross(w); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	u := Vec3{0, 3, 4}.Normalize()
	if !almostEq(u.Norm(), 1, 1e-12) {
		t.Errorf("Normalize norm = %v", u.Norm())
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("Normalize zero = %v", z)
	}
}

func TestVec3CrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampT(ax), clampT(ay), clampT(az)}
		b := Vec3{clampT(bx), clampT(by), clampT(bz)}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		return math.Abs(c.Dot(a)) <= 1e-9*(1+scale) && math.Abs(c.Dot(b)) <= 1e-9*(1+scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampT maps arbitrary float64 quick-check inputs into a tame range and
// filters NaN/Inf so floating-point properties hold at reasonable scales.
func clampT(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e3)
}

func TestRotationMatrices(t *testing.T) {
	// Rotating +z about y by +90° should give +x (right-handed with y down).
	v := RotY(math.Pi / 2).Apply(Vec3{0, 0, 1})
	if !almostEq(v.X, 1, 1e-12) || !almostEq(v.Y, 0, 1e-12) || !almostEq(v.Z, 0, 1e-12) {
		t.Errorf("RotY(π/2)·z = %v", v)
	}
	// Rotation matrices are orthonormal: R·Rᵀ = I.
	r := RotX(0.3).Mul(RotY(-0.7))
	id := r.Mul(r.Transpose())
	want := Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(id[i][j], want[i][j], 1e-12) {
				t.Fatalf("R·Rᵀ[%d][%d] = %v", i, j, id[i][j])
			}
		}
	}
}

func TestMat3MulApplyConsistency(t *testing.T) {
	a := RotX(0.5)
	b := RotY(-0.25)
	v := Vec3{1, -2, 3}
	lhs := a.Mul(b).Apply(v)
	rhs := a.Apply(b.Apply(v))
	if !almostEq(lhs.X, rhs.X, 1e-12) || !almostEq(lhs.Y, rhs.Y, 1e-12) || !almostEq(lhs.Z, rhs.Z, 1e-12) {
		t.Errorf("(AB)v=%v A(Bv)=%v", lhs, rhs)
	}
}
