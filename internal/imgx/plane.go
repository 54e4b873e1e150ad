// Package imgx implements the 8-bit luma image representation shared by the
// renderer, the codec and the detector: planes, rectangular regions, block
// copies, and distortion metrics (MSE/PSNR, whole-frame and per-region).
//
// DiVE's analysis operates on luma only — motion estimation in practical
// codecs is luma-driven — so a frame is a single plane.
package imgx

import (
	"fmt"
	"math"
)

// Plane is an 8-bit single-channel image with row-major storage.
type Plane struct {
	W, H int
	Pix  []uint8
	// seq is a content generation counter: Set bumps it, and
	// callers that rewrite Pix directly and reuse the buffer across frames
	// must call Bump so content-keyed caches (the encoder's motion-analysis
	// memo) notice the change. Pointer identity alone cannot.
	seq uint64
}

// NewPlane allocates a zeroed W×H plane. It panics on non-positive
// dimensions, which indicates a programming error.
func NewPlane(w, h int) *Plane {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgx: invalid plane size %dx%d", w, h))
	}
	return &Plane{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Coordinates outside the plane are clamped
// to the border, matching the edge-extension behaviour video codecs use for
// motion compensation at frame boundaries.
func (p *Plane) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (p *Plane) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= p.W || y >= p.H {
		return
	}
	p.Pix[y*p.W+x] = v
	p.seq++
}

// Bump advances the content generation counter. Call it after writing Pix
// directly on a buffer that is reused across frames.
func (p *Plane) Bump() { p.seq++ }

// Seq returns the content generation counter.
func (p *Plane) Seq() uint64 { return p.seq }

// Clone returns a deep copy of the plane.
func (p *Plane) Clone() *Plane {
	q := NewPlane(p.W, p.H)
	copy(q.Pix, p.Pix)
	return q
}

// Row returns the pixels of row y as a shared slice (no copy).
func (p *Plane) Row(y int) []uint8 {
	return p.Pix[y*p.W : (y+1)*p.W]
}

// Rect is an axis-aligned rectangle. Min is inclusive, Max exclusive,
// mirroring the standard library's image.Rectangle convention.
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// NewRect builds a rectangle from a corner and a size.
func NewRect(x, y, w, h int) Rect { return Rect{x, y, x + w, y + h} }

// W returns the rectangle width (0 if empty).
func (r Rect) W() int {
	if r.MaxX <= r.MinX {
		return 0
	}
	return r.MaxX - r.MinX
}

// H returns the rectangle height (0 if empty).
func (r Rect) H() int {
	if r.MaxY <= r.MinY {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the rectangle area in pixels.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.W() == 0 || r.H() == 0 }

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: maxi(r.MinX, s.MinX),
		MinY: maxi(r.MinY, s.MinY),
		MaxX: mini(r.MaxX, s.MaxX),
		MaxY: mini(r.MaxY, s.MaxY),
	}
	if out.MaxX < out.MinX {
		out.MaxX = out.MinX
	}
	if out.MaxY < out.MinY {
		out.MaxY = out.MinY
	}
	return out
}

// Union returns the smallest rectangle covering both r and s. Empty
// rectangles are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		MinX: mini(r.MinX, s.MinX),
		MinY: mini(r.MinY, s.MinY),
		MaxX: maxi(r.MaxX, s.MaxX),
		MaxY: maxi(r.MaxY, s.MaxY),
	}
}

// Contains reports whether point (x, y) lies in r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.MinX && x < r.MaxX && y >= r.MinY && y < r.MaxY
}

// ClipTo clamps r to the plane bounds [0,w)×[0,h).
func (r Rect) ClipTo(w, h int) Rect {
	return r.Intersect(Rect{0, 0, w, h})
}

// IoU returns the intersection-over-union of r and s, the matching measure
// used by the AP metric.
func (r Rect) IoU(s Rect) float64 {
	inter := r.Intersect(s).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + s.Area() - inter
	return float64(inter) / float64(union)
}

// MSE returns the mean squared error between two planes of identical size.
// It panics on size mismatch (a programming error in this codebase).
func MSE(a, b *Plane) float64 {
	if a.W != b.W || a.H != b.H {
		panic("imgx: MSE size mismatch")
	}
	return float64(ssd(a.Pix, b.Pix)) / float64(len(a.Pix))
}

// RegionMSE returns the MSE restricted to rect (clipped to the planes). An
// empty region returns 0.
func RegionMSE(a, b *Plane, rect Rect) float64 {
	if a.W != b.W || a.H != b.H {
		panic("imgx: RegionMSE size mismatch")
	}
	r := rect.ClipTo(a.W, a.H)
	if r.Empty() {
		return 0
	}
	var s uint64
	for y := r.MinY; y < r.MaxY; y++ {
		s += ssd(a.Pix[y*a.W+r.MinX:y*a.W+r.MaxX], b.Pix[y*b.W+r.MinX:y*b.W+r.MaxX])
	}
	return float64(s) / float64(r.Area())
}

// PSNR converts an MSE into peak signal-to-noise ratio in dB for 8-bit
// content. A zero MSE returns +Inf.
func PSNR(mse float64) float64 {
	if mse <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
