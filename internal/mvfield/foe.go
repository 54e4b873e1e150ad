package mvfield

import (
	"errors"
	"math/rand"
	"slices"

	"dive/internal/geom"
)

// ErrNoFOE is returned when too few usable vectors exist to locate the FOE.
var ErrNoFOE = errors.New("mvfield: not enough vectors to estimate FOE")

// foeModel fits the focus of expansion: for purely translational flow every
// vector lies on the line through its own position and the FOE, so
// cross(flow, pos − FOE) = 0, which is linear in the FOE coordinates:
//
//	flowY·Fx − flowX·Fy = flowY·px − flowX·py
type foeModel struct {
	vecs []Vector
}

func (m foeModel) Len() int { return len(m.vecs) }

func (m foeModel) Fit(idx []int) (geom.Vec2, error) {
	var q geom.Normal2
	for _, i := range idx {
		v := m.vecs[i]
		q.Add(v.Flow.Y, -v.Flow.X, v.Flow.Y*v.Pos.X-v.Flow.X*v.Pos.Y)
	}
	x, y, err := q.Solve()
	return geom.Vec2{X: x, Y: y}, err
}

func (m foeModel) Residual(i int, foe geom.Vec2) float64 {
	v := m.vecs[i]
	radial := v.Pos.Sub(foe)
	n := radial.Norm()
	if n < 1e-9 {
		return 0
	}
	// Perpendicular distance of the flow direction from the radial line,
	// scaled back to pixels of flow.
	return absf(v.Flow.Cross(radial)) / n
}

// Inliers appends every i with Residual(i, foe) <= thr, without a square
// root or a division. With r = pos − foe, c = flow × r and s = r·r the
// residual is |c|/√s, so the test is c² against thr²·s. The two sides are
// compared with a margin of 2⁻⁴⁷·(thr² + |flow|²)·s, which bounds every
// rounding either computation makes: c's cancellation (a few ulps of
// |flow|·|r|, fused multiply-add or not, on either side), the squares and
// products here, and Hypot's and the division's in Residual. So a point the
// margin decides is decided as Residual decides it, on every GOARCH. The
// rest — the band within the margin, s below 4e-18 (where Residual's
// n < 1e-9 rule returns 0), a product that overflows, a NaN — and every
// point when thr² would leave the normal range go through Residual itself.
func (m foeModel) Inliers(foe geom.Vec2, thr float64, dst []int) []int {
	k := len(dst)
	dst = slices.Grow(dst, len(m.vecs))[:k+len(m.vecs)]
	t, exact := thr*thr, !(thr >= 0x1p-450 && thr <= 0x1p450)
	for i := range m.vecs {
		v := &m.vecs[i]
		r := v.Pos.Sub(foe)
		c, s := v.Flow.Cross(r), r.Dot(r)
		cc, ts := c*c, t*s
		margin := (t + v.Flow.Dot(v.Flow)) * s * 0x1p-47
		in := cc < ts-margin
		if exact || !(s >= 4e-18) || !in && !(cc > ts+margin) {
			in = m.Residual(i, foe) <= thr
		}
		// Store unconditionally and advance by the verdict: about half the
		// points are inliers, so a branch here would mispredict.
		dst[k] = i
		k += b2i(in)
	}
	return dst[:k]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Scratch is the working storage of the per-frame estimators — the usable
// vectors EstimateFOE fits, R-sampling's sort keys, the rotation model's
// points and the RANSAC driver's index buffers — kept between frames by a
// caller that runs them on every frame. Nothing in it outlives the call that
// filled it. The zero value is ready to use.
type Scratch struct {
	ransac geom.RANSACScratch
	vecs   []Vector
	keys   []distKey
	pts    []rotPoint
	idx    []int
}

// EstimateFOE locates the focus of expansion of a (rotation-free) flow
// field with RANSAC over the radial-alignment constraint. Only valid,
// non-zero vectors participate. The result is in principal-point-centered
// coordinates.
func EstimateFOE(f *Field, rng *rand.Rand) (geom.Vec2, error) {
	return EstimateFOEWith(nil, f, rng)
}

// EstimateFOEWith is EstimateFOE working in s (nil: a fresh scratch).
func EstimateFOEWith(s *Scratch, f *Field, rng *rand.Rand) (geom.Vec2, error) {
	if s == nil {
		s = &Scratch{}
	}
	vecs := s.vecs[:0]
	for _, v := range f.Vectors {
		if v.Valid && !v.Zero && v.Flow.Norm() >= 1 {
			vecs = append(vecs, v)
		}
	}
	s.vecs = vecs
	if len(vecs) < 8 {
		return geom.Vec2{}, ErrNoFOE
	}
	foe, _, err := geom.RANSAC(foeModel{vecs}, geom.RANSACConfig{
		MinSamples:      2,
		Iterations:      64,
		InlierThreshold: 2.0,
		MinInliers:      len(vecs) / 4,
	}, rng, &s.ransac)
	return foe, err
}

// FOECalibrator maintains the long-term "fixed FOE" the paper calibrates
// while the agent drives straight; R-sampling anchors on it.
type FOECalibrator struct {
	foe    geom.Vec2
	weight float64
	// Alpha is the exponential smoothing factor per accepted update.
	Alpha float64
	// MaxRadius rejects estimates farther than this from the principal
	// point (forward FOEs sit near the image center).
	MaxRadius float64
}

// NewFOECalibrator returns a calibrator with the defaults used by DiVE.
func NewFOECalibrator() *FOECalibrator {
	return &FOECalibrator{Alpha: 0.1, MaxRadius: 80}
}

// Update folds in a new per-frame FOE estimate.
func (c *FOECalibrator) Update(foe geom.Vec2) {
	if foe.Norm() > c.MaxRadius {
		return
	}
	if c.weight == 0 {
		c.foe = foe
		c.weight = 1
		return
	}
	c.foe = c.foe.Scale(1 - c.Alpha).Add(foe.Scale(c.Alpha))
}

// FOE returns the calibrated FOE; before any update it is the principal
// point (the natural prior for a forward-facing camera).
func (c *FOECalibrator) FOE() geom.Vec2 { return c.foe }
