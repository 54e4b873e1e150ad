package world

import (
	"math"
	"math/rand"

	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/parallel"
)

// GTBox is a ground-truth 2-D annotation for one object in one frame.
type GTBox struct {
	ObjectID int
	Class    Class
	Box      imgx.Rect
	Depth    float64 // camera-space depth of the object, meters
	Visible  float64 // unoccluded fraction in [0, 1]
	Moving   bool    // whether the object itself is in motion
}

// renderBand is the fixed scanline band height the renderer shards by. It is
// part of the output contract: per-band sensor-noise RNG streams are seeded
// by band index, so the band height (never the worker count) determines the
// noise pattern.
const renderBand = 16

// bbJob is one projected billboard: all per-object geometry is computed
// once, serially, in draw order, so the per-row depth tests are pure and can
// shard across bands.
type bbJob struct {
	obj       *Billboard
	rect      imgx.Rect // unclipped projected rect, kept for ground truth
	clipped   imgx.Rect
	dpt       float64
	base      geom.Vec3
	right     geom.Vec3
	normal    geom.Vec3
	denomBase float64
}

// bbHit is what a pixel of the current row shows: the billboard job that won
// its depth test (-1: none) and the surface coordinates the ray hit it at.
type bbHit struct {
	job  int32
	u, v float64
}

// bandScratch is one band's working set: the current row's rays and hits
// and its noise generator.
type bandScratch struct {
	rays []geom.Vec3
	hits []bbHit
	rng  *rand.Rand
}

// Renderer rasterizes a Scene through a Camera with a z-buffer.
type Renderer struct {
	scene *Scene
	depth []float64
	// objs, jobs, wrote, gts and bands are per-frame scratch recycled across
	// Render calls: the culled objects, the projected billboards, the
	// per-band "wrote" bits, the ground truth before its copy, and each
	// band's working set.
	objs  []*Billboard
	jobs  []bbJob
	wrote []bool
	gts   []GTBox
	bands []bandScratch
	pool  *parallel.Pool
	poolW int
	// workers bounds the renderer's scanline-band parallelism. 0, what every
	// program runs, sizes to GOMAXPROCS; the package's tests set other
	// widths. Output is identical for every value: bands are fixed
	// renderBand-row slabs and each band owns an independent RNG stream.
	workers int
	// MaxObjectDist culls objects farther than this from the camera.
	MaxObjectDist float64
	// NoiseStd adds per-pixel Gaussian sensor noise (luma levels).
	NoiseStd float64
	// Illumination scales rendered luma before sensor noise; 1 is
	// daylight, small values emulate night capture with analog gain
	// (contrast shrinks, noise does not).
	Illumination float64
	// MinBoxPixels drops ground-truth boxes smaller than this area.
	MinBoxPixels int
	// MinVisible drops ground-truth boxes occluded below this fraction.
	MinVisible float64
}

// NewRenderer creates a renderer for the scene with dashcam-like defaults.
func NewRenderer(scene *Scene) *Renderer {
	return &Renderer{
		scene:         scene,
		MaxObjectDist: 120,
		NoiseStd:      1.2,
		Illumination:  1,
		MinBoxPixels:  30,
		MinVisible:    0.25,
	}
}

// Render draws the scene at time t through cam and returns the luma frame
// together with the ground-truth boxes of detectable objects. frameSeed
// decorrelates sensor noise across frames.
//
// Billboards are projected serially in draw order; then one banded pass
// shades every pixel exactly once (shadeBand). Each pixel belongs to exactly
// one band, and each band replays the objects in draw order, so the
// per-pixel depth-test sequence is the serial object loop's at every worker
// count: nearer depth wins and equal-depth ties go to the earlier object.
func (r *Renderer) Render(cam *Camera, t float64, frameSeed int64) (*imgx.Plane, []GTBox) {
	w, h := cam.W, cam.H
	frame := imgx.NewPlane(w, h)
	if cap(r.depth) < w*h {
		r.depth = make([]float64, w*h)
	}
	r.project(cam, t)
	nb := (h + renderBand - 1) / renderBand
	if cap(r.wrote) < len(r.jobs)*nb {
		r.wrote = make([]bool, len(r.jobs)*nb)
	}
	r.wrote = r.wrote[:len(r.jobs)*nb]
	clear(r.wrote)
	if len(r.bands) < nb {
		r.bands = make([]bandScratch, nb)
	}
	r.workerPool().Bands(h, renderBand, func(b, lo, hi int) {
		r.shadeBand(cam, frame.Pix, frameSeed, b, lo, hi)
	})

	// Ground truth: the billboards that won some pixel, visible fraction
	// estimated against the final z-buffer.
	gts := r.gts[:0]
	for j := range r.jobs {
		job := &r.jobs[j]
		if job.obj.Class == ClassStructure || !r.drew(j, nb) {
			continue
		}
		box := job.rect.ClipTo(w, h)
		if box.Area() < r.MinBoxPixels {
			continue
		}
		vis := visibleFraction(r.depth, w, box, job.dpt)
		if vis < r.MinVisible {
			continue
		}
		gts = append(gts, GTBox{
			ObjectID: job.obj.ID,
			Class:    job.obj.Class,
			Box:      box,
			Depth:    job.dpt,
			Visible:  vis,
			Moving:   job.obj.Moving(t),
		})
	}
	r.gts = gts
	return frame, append([]GTBox(nil), gts...)
}

// drew reports whether job j won any pixel in any of the nb bands.
func (r *Renderer) drew(j, nb int) bool {
	for b := 0; b < nb; b++ {
		if r.wrote[b*len(r.jobs)+j] {
			return true
		}
	}
	return false
}

// workerPool returns the pool for the current workers setting, rebuilding it
// when the setting changed since the last frame.
func (r *Renderer) workerPool() *parallel.Pool {
	if r.pool == nil || r.poolW != r.workers {
		r.pool = parallel.New(r.workers)
		r.poolW = r.workers
	}
	return r.pool
}

// project culls the scene's objects and projects the survivors, in draw
// order, into r.jobs.
func (r *Renderer) project(cam *Camera, t float64) {
	r.objs = r.scene.ObjectsNear(r.objs[:0], cam.Pos, t, r.MaxObjectDist)
	jobs := r.jobs[:0]
	for _, obj := range r.objs {
		base := obj.Pos(t)
		right, normal := obj.Axes(t, cam.Pos)
		fwd := normal // GT depth extent lies along the view direction
		rect, dpt, ok := cam.ProjectBox(base, right, fwd, obj.Width, obj.Height, obj.Depth)
		if !ok {
			continue
		}
		clipped := rect.ClipTo(cam.W, cam.H)
		if clipped.Empty() {
			continue
		}
		jobs = append(jobs, bbJob{
			obj: obj, rect: rect, clipped: clipped, dpt: dpt,
			base: base, right: right, normal: normal,
			denomBase: normal.Dot(base.Sub(cam.Pos)),
		})
	}
	r.jobs = jobs
}

// shadeBand draws rows [lo, hi) of the frame pix as band b. Each row
// casts its rays once and writes the ground's depth; each billboard then runs
// its depth and extent test in draw order, and only the winner is kept; then
// every pixel is shaded once — the winner's texture, else the ground's at
// the stored depth, else the sky's — and goes through the sensor model.
func (r *Renderer) shadeBand(cam *Camera, pix []uint8, frameSeed int64, b, lo, hi int) {
	w := cam.W
	s := &r.bands[b]
	if cap(s.rays) < w {
		s.rays, s.hits = make([]geom.Vec3, w), make([]bbHit, w)
	}
	rays, hits := s.rays[:w], s.hits[:w]
	jobs := r.jobs
	wrote := r.wrote[b*len(jobs) : (b+1)*len(jobs)]
	// Sensor noise draws from a per-band RNG seeded by (frameSeed, band
	// index), so the pattern is a function of the band height alone, never
	// of the worker count.
	var rng *rand.Rand
	if r.NoiseStd > 0 {
		mix := uint64(b+1) * 0x9E3779B97F4A7C15 // Fibonacci hashing spreads band seeds
		seed := frameSeed ^ int64(mix)
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(seed))
		} else {
			s.rng.Seed(seed) // the stream NewSource(seed) starts
		}
		rng = s.rng
	}
	illum := r.Illumination > 0 && r.Illumination != 1
	groundY, ground, sky := r.scene.GroundY, r.scene.GroundTex, r.scene.Sky
	up := geom.Vec3{Y: -1}
	for y := lo; y < hi; y++ {
		depth := r.depth[y*w : (y+1)*w]
		for x := range rays {
			d := cam.RayDir(float64(x)+0.5, float64(y)+0.5)
			rays[x], hits[x].job, depth[x] = d, -1, math.Inf(1)
			if d.Y > 1e-6 {
				if tHit := (groundY - cam.Pos.Y) / d.Y; tHit > 0 {
					depth[x] = tHit // d has camera-z 1, so t == depth
				}
			}
		}
		for j := range jobs {
			job := &jobs[j]
			if y < job.clipped.MinY || y >= job.clipped.MaxY {
				continue
			}
			obj := job.obj
			for x := job.clipped.MinX; x < job.clipped.MaxX; x++ {
				d := rays[x]
				nd := job.normal.Dot(d)
				if math.Abs(nd) < 1e-9 {
					continue
				}
				tHit := job.denomBase / nd
				if tHit < 0.5 || tHit >= depth[x] {
					continue
				}
				rel := cam.Pos.Add(d.Scale(tHit)).Sub(job.base)
				u, v := rel.Dot(job.right), rel.Dot(up)
				if u < -obj.Width/2 || u > obj.Width/2 || v < 0 || v > obj.Height {
					continue
				}
				hits[x] = bbHit{int32(j), u, v}
				depth[x] = tHit
				wrote[j] = true
			}
		}
		row := pix[y*w : (y+1)*w]
		for x, d := range rays {
			var c uint8
			if hit := hits[x]; hit.job >= 0 {
				obj := jobs[hit.job].obj
				c = obj.Tex.Sample(hit.u+obj.Width/2, obj.Height-hit.v)
			} else if tHit := depth[x]; tHit < math.Inf(1) {
				p := cam.Pos.Add(d.Scale(tHit))
				c = ground.Sample(p.X, p.Z)
			} else {
				// Sky: parameterize by direction.
				c = sky.Sample(math.Atan2(d.X, d.Z)/math.Pi, geomClamp(-d.Y*2, 0, 1))
			}
			v := float64(c)
			if illum {
				// Night capture: luma (and with it texture contrast) scales
				// down, with a small gain-lifted pedestal so the image is dim
				// but not black.
				v = float64(clampU8(v*r.Illumination + 14))
			}
			if rng != nil {
				v += rng.NormFloat64() * r.NoiseStd
			}
			row[x] = clampU8(v)
		}
	}
}

// visibleFraction samples the z-buffer on a grid inside box and reports the
// fraction of samples whose final depth is close to objDepth, i.e. the
// fraction of the object not hidden behind nearer geometry.
func visibleFraction(depth []float64, stride int, box imgx.Rect, objDepth float64) float64 {
	const grid = 6
	total, vis := 0, 0
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			x := box.MinX + (box.W()*(2*gx+1))/(2*grid)
			y := box.MinY + (box.H()*(2*gy+1))/(2*grid)
			total++
			d := depth[y*stride+x]
			if d <= objDepth*1.15+1.0 {
				// The surface here is the object itself (or something at
				// its depth); count as visible.
				if d >= objDepth*0.8-1.0 {
					vis++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(vis) / float64(total)
}
