package mvfield

import (
	"errors"
	"math/rand"

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
