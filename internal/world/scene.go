package world

import (
	"math"

	"dive/internal/geom"
)

// Class labels the object categories the detector distinguishes; they match
// the two categories the paper reports AP for.
type Class int

// Object classes.
const (
	ClassCar Class = iota + 1
	ClassPedestrian
	ClassStructure // buildings, signs — rendered but never a detection target
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case ClassCar:
		return "car"
	case ClassPedestrian:
		return "pedestrian"
	case ClassStructure:
		return "structure"
	default:
		return "unknown"
	}
}

// Billboard is a renderable object: a vertical, camera-facing textured
// rectangle standing on a base point, with a nominal depth used only for
// ground-truth box projection. Cylindrical billboards preserve the apparent
// width/height and perspective scaling of real objects while keeping the
// rasterizer trivial — all that matters downstream is that blocks of the
// object move coherently.
type Billboard struct {
	ID      int
	Class   Class
	Width   float64 // meters
	Height  float64 // meters
	Depth   float64 // meters (for GT box extents only)
	Tex     Texture
	basePos geom.Vec3 // bottom-center at t=0
	vel     geom.Vec3 // world-frame velocity (m/s); zero for statics
	stopAt  float64   // time at which the actor halts (<0: never)
	resume  float64   // time at which it resumes (<0: never)
}

// NewStatic creates a non-moving billboard.
func NewStatic(id int, class Class, pos geom.Vec3, w, h, d float64, tex Texture) *Billboard {
	return &Billboard{
		ID: id, Class: class, Width: w, Height: h, Depth: d,
		Tex: tex, basePos: pos, stopAt: -1, resume: -1,
	}
}

// NewActor creates a moving billboard with constant velocity, optionally
// halting during [stopAt, resume) to mimic stop-and-go traffic.
func NewActor(id int, class Class, pos, vel geom.Vec3, w, h, d float64, tex Texture, stopAt, resume float64) *Billboard {
	return &Billboard{
		ID: id, Class: class, Width: w, Height: h, Depth: d,
		Tex: tex, basePos: pos, vel: vel, stopAt: stopAt, resume: resume,
	}
}

// Pos returns the bottom-center world position at time t.
func (b *Billboard) Pos(t float64) geom.Vec3 {
	move := t
	if b.stopAt >= 0 && t > b.stopAt {
		pause := t - b.stopAt
		if b.resume >= 0 && t > b.resume {
			pause = b.resume - b.stopAt
		}
		move = t - pause
	}
	return b.basePos.Add(b.vel.Scale(move))
}

// Moving reports whether the billboard is in motion at time t.
func (b *Billboard) Moving(t float64) bool {
	if b.vel.Norm() == 0 {
		return false
	}
	if b.stopAt >= 0 && t > b.stopAt && (b.resume < 0 || t < b.resume) {
		return false
	}
	return true
}

// Axes returns the billboard's horizontal right axis and its normal given a
// camera position, implementing the cylindrical (y-axis) billboard.
func (b *Billboard) Axes(t float64, camPos geom.Vec3) (right, normal geom.Vec3) {
	toCam := camPos.Sub(b.Pos(t))
	toCam.Y = 0
	n := toCam.Norm()
	if n < 1e-9 {
		return geom.Vec3{X: 1}, geom.Vec3{Z: -1}
	}
	normal = toCam.Scale(1 / n)
	// right = up × normal with up = (0,-1,0) in the y-down world.
	up := geom.Vec3{Y: -1}
	right = up.Cross(normal).Normalize()
	return right, normal
}

// Scene is a complete synthetic world: the ground plane, the sky, and all
// renderable objects.
type Scene struct {
	GroundY   float64 // world y of the ground plane (camera height, > 0)
	GroundTex Texture
	Sky       SkyTexture
	Objects   []*Billboard
}

// GroundPlaneY is the default camera height above the road in meters,
// matching a windshield-mounted dashcam.
const GroundPlaneY = 1.4

// ObjectsNear appends to dst the objects whose position at time t lies
// within maxDist of p, and returns the extended slice; the renderer's
// broad-phase cull.
func (s *Scene) ObjectsNear(dst []*Billboard, p geom.Vec3, t, maxDist float64) []*Billboard {
	for _, o := range s.Objects {
		d := o.Pos(t).Sub(p)
		if math.Hypot(d.X, d.Z) <= maxDist {
			dst = append(dst, o)
		}
	}
	return dst
}
