package world

import (
	"math"
	"math/rand"

	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/parallel"
)

// The oracle: the three-pass renderer that the one-pass renderer replaced,
// verbatim from the commit before it — a banded background pass that shades
// every pixel, a banded billboard pass that shades each pixel whenever it wins
// the depth test at its turn, and a separate banded sensor pass.
// TestRenderMatchesOracle holds Renderer.Render to oracleRenderer.Render pixel
// for pixel, box for box and depth for depth.

// drawn records one successfully rasterized billboard for ground-truth
// extraction.
type drawn struct {
	obj  *Billboard
	rect imgx.Rect
	dpt  float64
}

// oracleRenderer is the three-pass Renderer: its settings, and the scratch
// its passes used.
type oracleRenderer struct {
	scene         *Scene
	depth         []float64
	rendered      []drawn
	jobs          []bbJob
	wroteScratch  []bool
	pool          *parallel.Pool
	poolW         int
	workers       int
	MaxObjectDist float64
	NoiseStd      float64
	Illumination  float64
	MinBoxPixels  int
	MinVisible    float64
}

// newOracle returns a three-pass renderer with r's scene and settings.
func newOracle(r *Renderer) *oracleRenderer {
	return &oracleRenderer{
		scene:         r.scene,
		workers:       r.workers,
		MaxObjectDist: r.MaxObjectDist,
		NoiseStd:      r.NoiseStd,
		Illumination:  r.Illumination,
		MinBoxPixels:  r.MinBoxPixels,
		MinVisible:    r.MinVisible,
	}
}

func (r *oracleRenderer) Render(cam *Camera, t float64, frameSeed int64) (*imgx.Plane, []GTBox) {
	w, h := cam.W, cam.H
	frame := imgx.NewPlane(w, h)
	if cap(r.depth) < w*h {
		r.depth = make([]float64, w*h)
	}
	depth := r.depth[:w*h]
	for i := range depth {
		depth[i] = math.Inf(1)
	}

	r.drawBackground(cam, frame, depth)

	objs := r.scene.ObjectsNear(nil, cam.Pos, t, r.MaxObjectDist)
	rendered := r.drawBillboards(cam, frame, depth, objs, t)

	// Sensor model, one fused banded pass. Illumination is pixel-local, so
	// banding cannot change it. Noise draws from a per-band RNG seeded by
	// (frameSeed, band index): streams are independent of the worker count,
	// so output is reproducible at any width — but the pattern differs from
	// the old single-stream scan (documented output change; no golden
	// depends on exact noise values, only on its statistics).
	illum := r.Illumination > 0 && r.Illumination != 1
	if illum || r.NoiseStd > 0 {
		r.workerPool().Bands(h, renderBand, func(b, lo, hi int) {
			var rng *rand.Rand
			if r.NoiseStd > 0 {
				mix := uint64(b+1) * 0x9E3779B97F4A7C15 // Fibonacci hashing spreads band seeds
				rng = rand.New(rand.NewSource(frameSeed ^ int64(mix)))
			}
			for i := lo * w; i < hi*w; i++ {
				v := float64(frame.Pix[i])
				if illum {
					// Night capture: luma (and with it texture contrast)
					// scales down, with a small gain-lifted pedestal so the
					// image is dim but not black.
					v = float64(clampU8(v*r.Illumination + 14))
				}
				if rng != nil {
					v += rng.NormFloat64() * r.NoiseStd
				}
				frame.Pix[i] = clampU8(v)
			}
		})
	}

	// Ground truth: visible fraction estimated against the final z-buffer.
	var gts []GTBox
	for _, d := range rendered {
		if d.obj.Class == ClassStructure {
			continue
		}
		box := d.rect.ClipTo(w, h)
		if box.Area() < r.MinBoxPixels {
			continue
		}
		vis := visibleFraction(depth, w, box, d.dpt)
		if vis < r.MinVisible {
			continue
		}
		gts = append(gts, GTBox{
			ObjectID: d.obj.ID,
			Class:    d.obj.Class,
			Box:      box,
			Depth:    d.dpt,
			Visible:  vis,
			Moving:   d.obj.Moving(t),
		})
	}
	return frame, gts
}

// workerPool returns the pool for the current workers setting, rebuilding it
// when the setting changed since the last frame.
func (r *oracleRenderer) workerPool() *parallel.Pool {
	if r.pool == nil || r.poolW != r.workers {
		r.pool = parallel.New(r.workers)
		r.poolW = r.workers
	}
	return r.pool
}

// drawBackground fills the sky above the horizon and ray-casts the textured
// ground plane below it. Every pixel is independent, so the frame is sharded
// into fixed scanline bands.
func (r *oracleRenderer) drawBackground(cam *Camera, frame *imgx.Plane, depth []float64) {
	r.workerPool().Bands(cam.H, renderBand, func(_, lo, hi int) {
		r.backgroundRows(cam, frame, depth, lo, hi)
	})
}

// backgroundRows rasterizes background rows [lo, hi).
func (r *oracleRenderer) backgroundRows(cam *Camera, frame *imgx.Plane, depth []float64, lo, hi int) {
	w := cam.W
	groundY := r.scene.GroundY
	for y := lo; y < hi; y++ {
		for x := 0; x < w; x++ {
			d := cam.RayDir(float64(x)+0.5, float64(y)+0.5)
			idx := y*w + x
			if d.Y > 1e-6 {
				tHit := (groundY - cam.Pos.Y) / d.Y
				if tHit > 0 {
					p := cam.Pos.Add(d.Scale(tHit))
					frame.Pix[idx] = r.scene.GroundTex.Sample(p.X, p.Z)
					depth[idx] = tHit // d has camera-z 1, so t == depth
					continue
				}
			}
			// Sky: parameterize by direction.
			az := math.Atan2(d.X, d.Z) / math.Pi
			el := geomClamp(-d.Y*2, 0, 1)
			frame.Pix[idx] = r.scene.Sky.Sample(az, el)
		}
	}
}

// drawBillboards rasterizes all billboards through the band pool. Projection
// setup runs serially in draw order; rasterization shards by the same fixed
// renderBand scanline bands as the rest of the renderer. Row ownership makes
// the pass pixel-identical to the serial object loop at every worker count:
// each pixel belongs to exactly one band, and each band replays the objects
// in draw order, so the per-pixel z-test/write sequence is exactly the one
// the serial loop produced — nearer depth always wins and equal-depth ties
// resolve to the earlier object, with no merge step needed (row ownership
// subsumes the per-band z-buffer merge: the full z-buffer rows are already
// private to the band).
func (r *oracleRenderer) drawBillboards(cam *Camera, frame *imgx.Plane, depth []float64, objs []*Billboard, t float64) []drawn {
	jobs := r.jobs[:0]
	for _, obj := range objs {
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

	// wrote[b*len(jobs)+j] records whether band b wrote any pixel of job j;
	// the per-object OR below rebuilds the serial "did it rasterize" bit.
	nb := (cam.H + renderBand - 1) / renderBand
	wrote := r.wroteScratch
	if cap(wrote) < len(jobs)*nb {
		wrote = make([]bool, len(jobs)*nb)
	}
	wrote = wrote[:len(jobs)*nb]
	for i := range wrote {
		wrote[i] = false
	}
	r.wroteScratch = wrote
	if len(jobs) > 0 {
		r.workerPool().Bands(cam.H, renderBand, func(b, lo, hi int) {
			for j := range jobs {
				if r.rasterBillboardRows(cam, frame, depth, &jobs[j], lo, hi) {
					wrote[b*len(jobs)+j] = true
				}
			}
		})
	}

	rendered := r.rendered[:0]
	for j := range jobs {
		for b := 0; b < nb; b++ {
			if wrote[b*len(jobs)+j] {
				rendered = append(rendered, drawn{jobs[j].obj, jobs[j].rect, jobs[j].dpt})
				break
			}
		}
	}
	r.rendered = rendered
	return rendered
}

// rasterBillboardRows rasterizes the rows of one billboard that fall inside
// [lo, hi) with perspective-correct inverse mapping and depth testing, and
// reports whether any pixel was written.
func (r *oracleRenderer) rasterBillboardRows(cam *Camera, frame *imgx.Plane, depth []float64, job *bbJob, lo, hi int) bool {
	yMin, yMax := job.clipped.MinY, job.clipped.MaxY
	if yMin < lo {
		yMin = lo
	}
	if yMax > hi {
		yMax = hi
	}
	if yMin >= yMax {
		return false
	}
	obj := job.obj
	up := geom.Vec3{Y: -1}
	wrote := false
	for y := yMin; y < yMax; y++ {
		for x := job.clipped.MinX; x < job.clipped.MaxX; x++ {
			d := cam.RayDir(float64(x)+0.5, float64(y)+0.5)
			nd := job.normal.Dot(d)
			if math.Abs(nd) < 1e-9 {
				continue
			}
			tHit := job.denomBase / nd
			if tHit < 0.5 {
				continue
			}
			idx := y*cam.W + x
			if tHit >= depth[idx] {
				continue
			}
			p := cam.Pos.Add(d.Scale(tHit))
			rel := p.Sub(job.base)
			u := rel.Dot(job.right)
			v := rel.Dot(up)
			if u < -obj.Width/2 || u > obj.Width/2 || v < 0 || v > obj.Height {
				continue
			}
			frame.Pix[idx] = obj.Tex.Sample(u+obj.Width/2, obj.Height-v)
			depth[idx] = tHit
			wrote = true
		}
	}
	return wrote
}
