// Package core implements DiVE itself (Section III of the paper): the
// preprocessing stage (ego-motion judgement and rotational-component
// elimination), motion-vector-based foreground extraction (ground
// estimation, region-growing clustering, cluster merging, convex contours),
// adaptive video encoding (bandwidth-targeted rate control with an adaptive
// foreground/background QP delta), and motion-vector-based offline tracking
// for link outages. The substrates live in sibling packages; this package
// is the paper's algorithmic contribution.
package core

import (
	"math"

	"dive/internal/codec"
	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/mvfield"
)

// ForegroundConfig tunes foreground extraction (Section III-C).
type ForegroundConfig struct {
	// HistBins is the resolution of the normalized-magnitude histogram fed
	// to the triangle threshold.
	HistBins int
	// ThresholdScale relaxes the triangle threshold (ground values spread
	// a little because codec vectors are integral).
	ThresholdScale float64
	// MinGroundSamples is the minimum number of usable normalized
	// magnitudes required to attempt ground estimation at all.
	MinGroundSamples int
	// SimAbs and SimRel define motion-vector similarity for region
	// growing: |a-b| ≤ SimAbs + SimRel·max(|a|,|b|).
	SimAbs, SimRel float64
	// MinClusterSize drops clusters smaller than this many macroblocks.
	MinClusterSize int
	// MergeAngle is the maximum direction difference (radians) between
	// cluster mean vectors for merging.
	MergeAngle float64
	// MergeGapMBs is the maximum spatial gap (in macroblocks) between
	// cluster bounding boxes for merging.
	MergeGapMBs int
	// DilateMBs grows the final foreground mask by this many macroblocks
	// so convex contours fully cover object borders.
	DilateMBs int
	// MaxAboveHorizonFrac bounds how far above the horizon (the principal
	// point row) region growing may reach, as a fraction of the half
	// frame height. Objects standing on the ground — cars, pedestrians —
	// project at most a few pixels above the horizon (their tops sit near
	// camera height), while buildings extend far above it; the bound
	// keeps facades out of the foreground.
	MaxAboveHorizonFrac float64
}

// DefaultForegroundConfig returns the operating point used by DiVE.
func DefaultForegroundConfig() ForegroundConfig {
	return ForegroundConfig{
		HistBins:            64,
		ThresholdScale:      1.35,
		MinGroundSamples:    8,
		SimAbs:              2.0,
		SimRel:              0.3,
		MinClusterSize:      2,
		MergeAngle:          30 * math.Pi / 180,
		MergeGapMBs:         2,
		DilateMBs:           1,
		MaxAboveHorizonFrac: 0.3,
	}
}

// ForegroundObject is one extracted foreground region.
type ForegroundObject struct {
	// Members are macroblock indices of the merged cluster.
	Members []int
	// Hull is the convex contour in macroblock-grid coordinates.
	Hull []geom.Vec2
	// BBox is the pixel-space bounding box of the contour.
	BBox imgx.Rect
	// MeanFlow is the cluster's average flow vector.
	MeanFlow geom.Vec2
}

// ForegroundResult is the outcome of foreground extraction on one frame.
type ForegroundResult struct {
	MBW, MBH int
	// GroundMask marks macroblocks classified as ground.
	GroundMask []bool
	// GroundHull is the convex contour of the ground region (MB grid
	// coordinates); nil when ground estimation failed.
	GroundHull []geom.Vec2
	// Threshold is the normalized-magnitude cut that defined the ground.
	Threshold float64
	// Seeds are the macroblock indices region growing started from.
	Seeds []int
	// Objects are the merged foreground clusters.
	Objects []ForegroundObject
	// Mask marks foreground macroblocks (hulls rasterized and dilated).
	Mask []bool
}

// Fraction returns the fraction of macroblocks marked foreground.
func (r *ForegroundResult) Fraction() float64 {
	if len(r.Mask) == 0 {
		return 0
	}
	n := 0
	for _, m := range r.Mask {
		if m {
			n++
		}
	}
	return float64(n) / float64(len(r.Mask))
}

// Empty reports whether no foreground was extracted.
func (r *ForegroundResult) Empty() bool { return r == nil || len(r.Objects) == 0 }

// fgScratch is ExtractForeground's working storage: everything it builds on
// the way to a ForegroundResult and does not hand out. members is one arena
// all clusters of a frame live in, as subslices; hulls holds the ground hull
// and then each object's, back to back.
type fgScratch struct {
	norms    []mvfield.NormalizedMagnitude
	vals     []float64
	hist     geom.Histogram
	pts      []geom.Vec2
	hull     geom.HullScratch
	hulls    []geom.Vec2
	seeds    []int
	visited  []bool
	members  []int
	clusters []cluster
}

// cluster is one region-grown (then merged) set of macroblocks.
type cluster struct {
	members []int
	mean    geom.Vec2
	bbox    imgx.Rect
	hullLen int
}

// ExtractForeground runs Section III-C on a rotation-corrected flow field:
// ground estimation from normalized magnitudes, seed selection inside the
// ground convex hull, region-growing clustering, direction-based merging,
// and convex contours. foe is in principal-point-centered coordinates.
// A nil result means no ground could be estimated (the caller should reuse
// the previous foreground, as the paper prescribes for stopped agents).
func ExtractForeground(f *mvfield.Field, foe geom.Vec2, cfg ForegroundConfig) *ForegroundResult {
	return extractForeground(nil, f, foe, cfg)
}

// extractForeground is ExtractForeground working in s (nil: a fresh
// scratch). The result is new storage, the caller's to keep: besides the
// struct and its object list, one array each for the two masks, for the
// index lists (seeds, members) and for the contours.
func extractForeground(s *fgScratch, f *mvfield.Field, foe geom.Vec2, cfg ForegroundConfig) *ForegroundResult {
	if s == nil {
		s = &fgScratch{}
	}
	s.norms = mvfield.NormalizedMagnitudesInto(s.norms, f, foe)
	vals := s.vals[:0]
	maxV := 0.0
	for _, n := range s.norms {
		if n.OK {
			vals = append(vals, n.Value)
			if n.Value > maxV {
				maxV = n.Value
			}
		}
	}
	s.vals = vals
	if len(vals) < cfg.MinGroundSamples || maxV <= 0 {
		return nil
	}

	// Ground = smallest normalized magnitudes, split off with the
	// triangle method (Section III-C1).
	s.hist.Reset(0, maxV*1.0001, cfg.HistBins)
	for _, v := range vals {
		s.hist.Add(v)
	}
	threshold := s.hist.TriangleThreshold() * cfg.ThresholdScale

	groundPts := s.pts[:0]
	for _, n := range s.norms {
		if n.OK && n.Value <= threshold {
			groundPts = append(groundPts, mbCenter(n.Index, f.MBW))
		}
	}
	s.pts = groundPts
	if len(groundPts) < 3 {
		return nil
	}
	masks := make([]bool, 2*len(f.Vectors))
	res := &ForegroundResult{
		MBW: f.MBW, MBH: f.MBH,
		GroundMask: masks[:len(f.Vectors):len(f.Vectors)],
		Threshold:  threshold,
		Mask:       masks[len(f.Vectors):],
	}
	for _, n := range s.norms {
		if n.OK && n.Value <= threshold {
			res.GroundMask[n.Index] = true
		}
	}
	s.hulls = geom.AppendConvexHull(s.hulls[:0], &s.hull, groundPts)
	groundLen := len(s.hulls)

	// Seeds: non-ground macroblocks with usable vectors inside the ground
	// hull — objects standing on the ground. minY bounds how far above
	// the horizon a standing object can reach.
	minY := -cfg.MaxAboveHorizonFrac * float64(f.MBH*codec.MBSize) / 2
	seeds := s.seeds[:0]
	for i, v := range f.Vectors {
		if res.GroundMask[i] || !v.Valid || v.Zero || v.Pos.Y < minY {
			continue
		}
		if geom.PointInHull(mbCenter(i, f.MBW), s.hulls[:groundLen]) {
			seeds = append(seeds, i)
		}
	}
	s.seeds = seeds

	s.growClusters(f, res.GroundMask, minY, cfg)
	s.mergeClusters(f, cfg)
	indices := len(seeds)
	for i := range s.clusters {
		c := &s.clusters[i]
		indices += len(c.members)
		pts := s.pts[:0]
		for _, m := range c.members {
			pts = append(pts, mbCenter(m, f.MBW))
		}
		s.pts = pts
		before := len(s.hulls)
		s.hulls = geom.AppendConvexHull(s.hulls, &s.hull, pts)
		c.hullLen = len(s.hulls) - before
	}

	// Hand out: copy what the scratch holds into the result's own arrays,
	// then cut them up.
	ints := append(make([]int, 0, indices), seeds...)
	for _, c := range s.clusters {
		ints = append(ints, c.members...)
	}
	vecs := append(make([]geom.Vec2, 0, len(s.hulls)), s.hulls...)
	if len(seeds) > 0 {
		res.Seeds = carve(&ints, len(seeds))
	}
	res.GroundHull = carve(&vecs, groundLen)
	if len(s.clusters) > 0 {
		res.Objects = make([]ForegroundObject, 0, len(s.clusters))
	}
	for _, c := range s.clusters {
		obj := ForegroundObject{
			Members: carve(&ints, len(c.members)),
			Hull:    carve(&vecs, c.hullLen),
			BBox: imgx.Rect{
				MinX: c.bbox.MinX * codec.MBSize, MinY: c.bbox.MinY * codec.MBSize,
				MaxX: c.bbox.MaxX * codec.MBSize, MaxY: c.bbox.MaxY * codec.MBSize,
			},
			MeanFlow: c.mean,
		}
		res.Objects = append(res.Objects, obj)
		rasterizeHull(res.Mask, f.MBW, f.MBH, obj.Hull, cfg.DilateMBs)
	}
	return res
}

// carve cuts the next n elements off the front of *arena and returns them
// capped, so that appending to one carved slice cannot reach the next.
func carve[T any](arena *[]T, n int) []T {
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return out
}

// mbCenter returns macroblock i's center in grid coordinates.
func mbCenter(i, mbw int) geom.Vec2 {
	return geom.Vec2{X: float64(i % mbw), Y: float64(i / mbw)}
}

// similarFlow implements the region-growing similarity test.
func similarFlow(a, b geom.Vec2, cfg ForegroundConfig) bool {
	d := a.Sub(b).Norm()
	m := math.Max(a.Norm(), b.Norm())
	return d <= cfg.SimAbs+cfg.SimRel*m
}

// growClusters performs the BFS region growing of Section III-C2: from each
// seed, neighbors join when their vector is similar both to the current
// block's vector and to the cluster's running mean (the guard against
// over-growing). Clusters are disjoint, so they all fit in one arena of
// len(f.Vectors) indices; the cluster being grown is its own BFS queue.
func (s *fgScratch) growClusters(f *mvfield.Field, ground []bool, minY float64, cfg ForegroundConfig) {
	if cap(s.visited) < len(f.Vectors) {
		s.visited = make([]bool, len(f.Vectors))
		s.members = make([]int, 0, len(f.Vectors))
	}
	visited := s.visited[:len(f.Vectors)]
	clear(visited)
	arena := s.members[:0]
	s.clusters = s.clusters[:0]
	for _, seed := range s.seeds {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		start := len(arena)
		arena = append(arena, seed)
		mean := f.Vectors[seed].Flow
		for head := start; head < len(arena); head++ {
			cur := arena[head]
			curFlow := f.Vectors[cur].Flow
			bx, by := cur%f.MBW, cur/f.MBW
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := bx+d[0], by+d[1]
				if nx < 0 || ny < 0 || nx >= f.MBW || ny >= f.MBH {
					continue
				}
				ni := ny*f.MBW + nx
				if visited[ni] || ground[ni] {
					continue
				}
				nv := f.Vectors[ni]
				if !nv.Valid || nv.Zero || nv.Pos.Y < minY {
					continue
				}
				if !similarFlow(nv.Flow, curFlow, cfg) || !similarFlow(nv.Flow, mean, cfg) {
					continue
				}
				visited[ni] = true
				arena = append(arena, ni)
				// Update the running mean.
				n := float64(len(arena) - start)
				mean = mean.Scale((n - 1) / n).Add(nv.Flow.Scale(1 / n))
			}
		}
		if len(arena)-start < cfg.MinClusterSize {
			arena = arena[:start]
			continue
		}
		members := arena[start:len(arena):len(arena)]
		s.clusters = append(s.clusters, cluster{members: members, mean: meanFlow(f, members), bbox: gridBBox(members, f.MBW)})
	}
	s.members = arena
}

// mergeClusters iteratively merges clusters whose mean flows point the same
// way and whose footprints are close, filling the holes sparse motion
// vectors leave in objects (Section III-C2). A merged cluster's members are
// written to the arena's tail, the absorbed cluster's after the absorbing
// one's.
func (s *fgScratch) mergeClusters(f *mvfield.Field, cfg ForegroundConfig) {
	items := s.clusters
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(items) && !merged; i++ {
			for j := i + 1; j < len(items); j++ {
				a, b := &items[i], items[j]
				if !mergeCompatible(a.mean, b.mean, a.bbox, b.bbox, cfg) {
					continue
				}
				start := len(s.members)
				s.members = append(append(s.members, a.members...), b.members...)
				a.members = s.members[start:len(s.members):len(s.members)]
				a.mean = meanFlow(f, a.members)
				a.bbox = a.bbox.Union(b.bbox)
				items = append(items[:j], items[j+1:]...)
				merged = true
				break
			}
		}
	}
	s.clusters = items
}

// mergeCompatible tests direction similarity, magnitude compatibility and
// spatial proximity of two clusters.
func mergeCompatible(ma, mb geom.Vec2, ba, bb imgx.Rect, cfg ForegroundConfig) bool {
	na, nb := ma.Norm(), mb.Norm()
	if na < 1e-9 || nb < 1e-9 {
		return false
	}
	cos := ma.Dot(mb) / (na * nb)
	if cos < math.Cos(cfg.MergeAngle) {
		return false
	}
	ratio := na / nb
	if ratio < 0.4 || ratio > 2.5 {
		return false
	}
	return rectGap(ba, bb) <= cfg.MergeGapMBs
}

// rectGap returns the Chebyshev gap between two rectangles (0 if touching
// or overlapping).
func rectGap(a, b imgx.Rect) int {
	dx := 0
	if a.MaxX <= b.MinX {
		dx = b.MinX - a.MaxX
	} else if b.MaxX <= a.MinX {
		dx = a.MinX - b.MaxX
	}
	dy := 0
	if a.MaxY <= b.MinY {
		dy = b.MinY - a.MaxY
	} else if b.MaxY <= a.MinY {
		dy = a.MinY - b.MaxY
	}
	if dx > dy {
		return dx
	}
	return dy
}

func meanFlow(f *mvfield.Field, members []int) geom.Vec2 {
	var s geom.Vec2
	for _, i := range members {
		s = s.Add(f.Vectors[i].Flow)
	}
	return s.Scale(1 / float64(len(members)))
}

// gridBBox returns the bounding rectangle of member MBs in grid units.
func gridBBox(members []int, mbw int) imgx.Rect {
	r := imgx.Rect{MinX: 1 << 30, MinY: 1 << 30, MaxX: -(1 << 30), MaxY: -(1 << 30)}
	for _, i := range members {
		x, y := i%mbw, i/mbw
		if x < r.MinX {
			r.MinX = x
		}
		if y < r.MinY {
			r.MinY = y
		}
		if x+1 > r.MaxX {
			r.MaxX = x + 1
		}
		if y+1 > r.MaxY {
			r.MaxY = y + 1
		}
	}
	return r
}

// rasterizeHull marks every macroblock whose center lies in the hull
// (dilated by dilate MBs) in mask.
func rasterizeHull(mask []bool, mbw, mbh int, hull []geom.Vec2, dilate int) {
	if len(hull) == 0 {
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range hull {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	d := float64(dilate)
	x0 := geom.ClampInt(int(minX-d), 0, mbw-1)
	x1 := geom.ClampInt(int(maxX+d+1), 0, mbw-1)
	y0 := geom.ClampInt(int(minY-d), 0, mbh-1)
	y1 := geom.ClampInt(int(maxY+d+1), 0, mbh-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if mask[y*mbw+x] {
				continue
			}
			p := geom.Vec2{X: float64(x), Y: float64(y)}
			if geom.PointInHull(p, hull) || hullDistanceAtMost(p, hull, d) {
				mask[y*mbw+x] = true
			}
		}
	}
}

// hullDistanceAtMost reports whether p is within dist of the hull boundary.
func hullDistanceAtMost(p geom.Vec2, hull []geom.Vec2, dist float64) bool {
	if dist <= 0 {
		return false
	}
	n := len(hull)
	if n == 1 {
		return p.Dist(hull[0]) <= dist
	}
	for i := 0; i < n; i++ {
		a := hull[i]
		b := hull[(i+1)%n]
		if segmentDist(p, a, b) <= dist {
			return true
		}
	}
	return false
}

// segmentDist returns the distance from p to segment ab.
func segmentDist(p, a, b geom.Vec2) float64 {
	ab := b.Sub(a)
	denom := ab.Dot(ab)
	if denom == 0 {
		return p.Dist(a)
	}
	t := geom.Clamp(p.Sub(a).Dot(ab)/denom, 0, 1)
	return p.Dist(a.Add(ab.Scale(t)))
}
