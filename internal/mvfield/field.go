// Package mvfield turns the raw per-macroblock motion vectors that the
// codec computes anyway into the geometric quantities DiVE's analytics need:
// the non-zero ratio η for ego-motion judgement, the focus of expansion
// (FOE), rotational-component elimination via R-sampling + RANSAC over the
// paper's Eq. (7), and FOE-normalized magnitudes (Eq. 8) for ground
// estimation.
//
// Sign conventions: the codec's MV points from a macroblock in the current
// frame to its match in the reference (previous) frame; the optical-flow
// vector of the image point is its negation, and that is what Field stores.
// Image coordinates are centered on the principal point with y downward,
// exactly as in the paper's Section II.
package mvfield

import (
	"dive/internal/codec"
	"dive/internal/geom"
)

// Vector is one macroblock's flow sample.
type Vector struct {
	Pos   geom.Vec2 // MB center, principal-point-centered coordinates
	Flow  geom.Vec2 // optical flow in pixels/frame
	Valid bool      // reliable enough for geometric fitting
	Zero  bool      // exactly zero flow
	SAD   int       // matching cost of the underlying MV
}

// Field is the per-frame flow field derived from codec motion vectors.
type Field struct {
	MBW, MBH int
	Focal    float64
	Vectors  []Vector
}

// MaxTrustedSAD is the default matching-cost ceiling above which a motion
// vector is considered unreliable (≈ 24 luma levels per pixel over a 16×16
// block).
const MaxTrustedSAD = 24 * codec.MBSize * codec.MBSize

// FromMotion converts a codec motion field into a flow field. cx, cy locate
// the principal point in pixel coordinates; focal is in pixels. maxSAD <= 0
// selects MaxTrustedSAD.
func FromMotion(mf *codec.MotionField, focal, cx, cy float64, maxSAD int) *Field {
	if maxSAD <= 0 {
		maxSAD = MaxTrustedSAD
	}
	f := &Field{MBW: mf.MBW, MBH: mf.MBH, Focal: focal, Vectors: make([]Vector, len(mf.MVs))}
	scale := float64(mf.Scale)
	if scale <= 0 {
		scale = 1
	}
	for i, mv := range mf.MVs {
		bx, by := i%mf.MBW, i/mf.MBW
		px := float64(bx*codec.MBSize) + codec.MBSize/2
		py := float64(by*codec.MBSize) + codec.MBSize/2
		v := Vector{
			Pos:  geom.Vec2{X: px - cx, Y: py - cy},
			Flow: geom.Vec2{X: -float64(mv.X) / scale, Y: -float64(mv.Y) / scale},
			SAD:  mf.SADs[i],
		}
		v.Zero = mv.IsZero()
		v.Valid = mf.SADs[i] <= maxSAD
		f.Vectors[i] = v
	}
	return f
}

// At returns the vector of macroblock (bx, by).
func (f *Field) At(bx, by int) Vector { return f.Vectors[by*f.MBW+bx] }

// Eta returns η, the ratio of macroblocks with non-zero motion vectors —
// the paper's ego-motion signal.
func (f *Field) Eta() float64 {
	if len(f.Vectors) == 0 {
		return 0
	}
	n := 0
	for _, v := range f.Vectors {
		if !v.Zero {
			n++
		}
	}
	return float64(n) / float64(len(f.Vectors))
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := *f
	g.Vectors = make([]Vector, len(f.Vectors))
	copy(g.Vectors, f.Vectors)
	return &g
}

// RemoveRotation subtracts the rotational flow component predicted by the
// paper's Eq. (5) for the estimated per-frame rotations (radians) and
// returns a corrected copy. phiX is pitch, phiY is yaw.
func (f *Field) RemoveRotation(phiX, phiY float64) *Field {
	g := f.Clone()
	for i := range g.Vectors {
		v := &g.Vectors[i]
		if v.Zero && !v.Valid {
			continue
		}
		v.Flow = v.Flow.Sub(RotationalFlow(g.Focal, v.Pos.X, v.Pos.Y, phiX, phiY))
	}
	return g
}

// RotationalFlow returns the flow that a pure rotation (phiX, phiY) induces
// at centered image position (x, y): the paper's Eq. (5).
func RotationalFlow(focal, x, y, phiX, phiY float64) geom.Vec2 {
	return geom.Vec2{
		X: -phiY*focal + phiX*x*y/focal - phiY*x*x/focal,
		Y: phiX*focal - phiY*x*y/focal + phiX*y*y/focal,
	}
}

// PointsToward reports whether flow vector v at position p is aligned with
// the radial direction away from the FOE within cosTol (cosine of the
// maximum angular deviation). Used to discard random vectors from plain
// regions before ground estimation.
func PointsToward(p, flow, foe geom.Vec2, cosTol float64) bool {
	radial := p.Sub(foe)
	rn, fn := radial.Norm(), flow.Norm()
	if rn < 1e-9 || fn < 1e-9 {
		return false
	}
	return radial.Dot(flow)/(rn*fn) >= cosTol
}
