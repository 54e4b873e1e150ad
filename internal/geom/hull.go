package geom

import (
	"cmp"
	"slices"
)

// HullScratch is AppendConvexHull's working storage — the sorted copy of the
// input and the chain under construction — kept between calls by a caller
// that builds hulls every frame. The zero value is ready to use.
type HullScratch struct {
	pts, hull []Vec2
}

// AppendConvexHull appends the convex hull of the given points to dst (nil:
// new storage of exactly the hull's length), in counterclockwise order (in
// the image convention with y downward this appears clockwise on screen),
// working in s (nil: a fresh scratch), so a caller that builds several hulls
// a frame can lay them back to back. It implements Andrew's monotone chain,
// an O(n log n) relative of Sklansky's algorithm that the paper uses for
// ground and object contours. Degenerate inputs (fewer than 3 distinct
// points, collinear sets) return the distinct points sorted lexicographically.
func AppendConvexHull(dst []Vec2, s *HullScratch, points []Vec2) []Vec2 {
	if s == nil {
		s = &HullScratch{}
	}
	pts := append(s.pts[:0], points...)
	s.pts = pts
	slices.SortFunc(pts, func(a, b Vec2) int {
		if a.X != b.X {
			return cmp.Compare(a.X, b.X)
		}
		return cmp.Compare(a.Y, b.Y)
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
	hull := s.hull[:0]
	if n < 3 {
		hull = append(hull, pts...)
	} else {
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
		hull = hull[:len(hull)-1]
	}
	s.hull = hull
	if dst == nil {
		dst = make([]Vec2, 0, len(hull))
	}
	return append(dst, hull...)
}

// cross returns the z component of (b-a) × (c-a).
func cross(a, b, c Vec2) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// PointInHull reports whether p lies inside or on the convex polygon hull
// (vertices in the order produced by AppendConvexHull). Hulls with fewer than 3
// vertices contain only their own points (within a small tolerance).
func PointInHull(p Vec2, hull []Vec2) bool {
	n := len(hull)
	switch n {
	case 0:
		return false
	case 1:
		return p.Dist(hull[0]) < 1e-9
	case 2:
		// On-segment test.
		d := hull[1].Sub(hull[0])
		ap := p.Sub(hull[0])
		if absf(d.Cross(ap)) > 1e-9*(1+d.Norm()) {
			return false
		}
		t := ap.Dot(d) / d.Dot(d)
		return t >= -1e-9 && t <= 1+1e-9
	}
	// p is inside a convex CCW polygon iff it is on the left of (or on)
	// every edge.
	for i := 0; i < n; i++ {
		a, b := hull[i], hull[(i+1)%n]
		if cross(a, b, p) < -1e-9 {
			return false
		}
	}
	return true
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
