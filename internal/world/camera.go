// Package world implements the synthetic driving world that substitutes for
// the nuScenes / RobotCar / KITTI recordings used by the paper: a pinhole
// camera on a moving ego vehicle, a textured ground plane, static roadside
// structure, moving cars and pedestrians, a z-buffered renderer, per-frame
// 2-D ground-truth boxes, and a synthetic IMU.
//
// Conventions follow the paper's Section II: the camera frame has x
// rightward, y downward and z along the optical axis; the world frame is the
// camera frame of the ego's initial pose. The ground plane therefore sits at
// a constant positive Y (below the camera).
package world

import (
	"dive/internal/geom"
	"dive/internal/imgx"
)

// Camera is a pinhole camera with square pixels and the principal point at
// the image center.
type Camera struct {
	F      float64 // focal length in pixels
	W, H   int     // image size in pixels
	Pos    geom.Vec3
	Yaw    float64 // rotation about world y (left/right heading), radians
	Pitch  float64 // rotation about camera x (nose up/down), radians
	minZ   float64 // near plane
	rot    geom.Mat3
	rotInv geom.Mat3
}

// NewCamera creates a camera with the given focal length and image size.
func NewCamera(f float64, w, h int) *Camera {
	c := &Camera{F: f, W: w, H: h, minZ: 0.5}
	c.refresh()
	return c
}

// SetPose positions and orients the camera. It is the only way to change
// the orientation: the rotation matrices are rebuilt here, eagerly, so the
// read-only methods below are safe to call from the renderer's concurrent
// scanline bands (a lazy rebuild on first use raced between bands).
func (c *Camera) SetPose(pos geom.Vec3, yaw, pitch float64) {
	c.Pos = pos
	c.Yaw = yaw
	c.Pitch = pitch
	c.refresh()
}

func (c *Camera) refresh() {
	// Camera-to-world rotation: yaw about y, then pitch about camera x.
	c.rot = geom.RotY(c.Yaw).Mul(geom.RotX(c.Pitch))
	c.rotInv = c.rot.Transpose()
}

// Cx returns the principal point x coordinate.
func (c *Camera) Cx() float64 { return float64(c.W) / 2 }

// Cy returns the principal point y coordinate.
func (c *Camera) Cy() float64 { return float64(c.H) / 2 }

// ToCamera transforms a world point into the camera frame.
func (c *Camera) ToCamera(p geom.Vec3) geom.Vec3 {
	return c.rotInv.Apply(p.Sub(c.Pos))
}

// ToWorldDir rotates a camera-frame direction into the world frame.
func (c *Camera) ToWorldDir(d geom.Vec3) geom.Vec3 {
	return c.rot.Apply(d)
}

// Project maps a world point to pixel coordinates. ok is false when the
// point is behind the near plane.
func (c *Camera) Project(p geom.Vec3) (pt geom.Vec2, depth float64, ok bool) {
	q := c.ToCamera(p)
	if q.Z < c.minZ {
		return geom.Vec2{}, 0, false
	}
	return geom.Vec2{
		X: c.F*q.X/q.Z + c.Cx(),
		Y: c.F*q.Y/q.Z + c.Cy(),
	}, q.Z, true
}

// RayDir returns the world-frame direction of the ray through pixel (x, y),
// scaled so that its camera-frame z component is 1. With this scaling the
// ray parameter t of an intersection equals the camera-space depth Z.
func (c *Camera) RayDir(x, y float64) geom.Vec3 {
	d := geom.Vec3{
		X: (x - c.Cx()) / c.F,
		Y: (y - c.Cy()) / c.F,
		Z: 1,
	}
	return c.ToWorldDir(d)
}

// ProjectBox projects the eight corners of an axis-free 3-D box described by
// a center-bottom point, horizontal axes (right, forward) and dimensions,
// and returns the bounding pixel rectangle plus the nearest depth. ok is
// false when every corner is behind the near plane.
func (c *Camera) ProjectBox(bottom geom.Vec3, right, fwd geom.Vec3, w, h, depthDim float64) (imgx.Rect, float64, bool) {
	up := geom.Vec3{X: 0, Y: -1, Z: 0}
	half := right.Scale(w / 2)
	dhalf := fwd.Scale(depthDim / 2)
	minX, minY := 1e18, 1e18
	maxX, maxY := -1e18, -1e18
	nearest := 1e18
	any := false
	for _, su := range []float64{-1, 1} {
		for _, sv := range []float64{0, 1} {
			for _, sw := range []float64{-1, 1} {
				p := bottom.Add(half.Scale(su)).Add(up.Scale(h * sv)).Add(dhalf.Scale(sw))
				pt, depth, ok := c.Project(p)
				if !ok {
					continue
				}
				any = true
				if pt.X < minX {
					minX = pt.X
				}
				if pt.X > maxX {
					maxX = pt.X
				}
				if pt.Y < minY {
					minY = pt.Y
				}
				if pt.Y > maxY {
					maxY = pt.Y
				}
				if depth < nearest {
					nearest = depth
				}
			}
		}
	}
	if !any {
		return imgx.Rect{}, 0, false
	}
	r := imgx.Rect{
		MinX: int(minX), MinY: int(minY),
		MaxX: int(maxX) + 1, MaxY: int(maxY) + 1,
	}
	return r, nearest, true
}
