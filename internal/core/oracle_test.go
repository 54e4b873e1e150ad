package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/mvfield"
	"dive/internal/world"
)

// The oracles below are today's bodies of ExtractForeground (with
// growClusters, mergeClusters and buildObject) and TrackDetections /
// boxMotion (with the geom.LeastSquares and gaussSolve it solved on), moved
// here verbatim before PR 22 rewrote them to run on agent-owned scratch. The
// pieces they share with production unchanged (similarFlow, mergeCompatible,
// meanFlow, gridBBox, rasterizeHull) and the two functions with oracles of
// their own next door (mvfield.NormalizedMagnitudesInto,
// geom.AppendConvexHull) are called, not copied.

func oracleExtractForeground(f *mvfield.Field, foe geom.Vec2, cfg ForegroundConfig) *ForegroundResult {
	norms := mvfield.NormalizedMagnitudesInto(nil, f, foe)
	var vals []float64
	maxV := 0.0
	for _, n := range norms {
		if n.OK {
			vals = append(vals, n.Value)
			if n.Value > maxV {
				maxV = n.Value
			}
		}
	}
	if len(vals) < cfg.MinGroundSamples || maxV <= 0 {
		return nil
	}

	// Ground = smallest normalized magnitudes, split off with the
	// triangle method (Section III-C1).
	hist := geom.NewHistogram(0, maxV*1.0001, cfg.HistBins)
	for _, v := range vals {
		hist.Add(v)
	}
	threshold := hist.TriangleThreshold() * cfg.ThresholdScale

	res := &ForegroundResult{
		MBW: f.MBW, MBH: f.MBH,
		GroundMask: make([]bool, len(f.Vectors)),
		Threshold:  threshold,
		Mask:       make([]bool, len(f.Vectors)),
	}
	var groundPts []geom.Vec2
	for _, n := range norms {
		if n.OK && n.Value <= threshold {
			res.GroundMask[n.Index] = true
			groundPts = append(groundPts, mbCenter(n.Index, f.MBW))
		}
	}
	if len(groundPts) < 3 {
		return nil
	}
	res.GroundHull = geom.AppendConvexHull(nil, nil, groundPts)

	// Seeds: non-ground macroblocks with usable vectors inside the ground
	// hull — objects standing on the ground. minY bounds how far above
	// the horizon a standing object can reach.
	minY := -cfg.MaxAboveHorizonFrac * float64(f.MBH*codec.MBSize) / 2
	for i, v := range f.Vectors {
		if res.GroundMask[i] || !v.Valid || v.Zero || v.Pos.Y < minY {
			continue
		}
		if geom.PointInHull(mbCenter(i, f.MBW), res.GroundHull) {
			res.Seeds = append(res.Seeds, i)
		}
	}

	clusters := oracleGrowClusters(f, res.GroundMask, res.Seeds, minY, cfg)
	clusters = oracleMergeClusters(f, clusters, cfg)

	for _, members := range clusters {
		obj := oracleBuildObject(f, members)
		res.Objects = append(res.Objects, obj)
		rasterizeHull(res.Mask, f.MBW, f.MBH, obj.Hull, cfg.DilateMBs)
	}
	return res
}

func oracleGrowClusters(f *mvfield.Field, ground []bool, seeds []int, minY float64, cfg ForegroundConfig) [][]int {
	visited := make([]bool, len(f.Vectors))
	var clusters [][]int
	for _, seed := range seeds {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		cluster := []int{seed}
		mean := f.Vectors[seed].Flow
		queue := []int{seed}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
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
				cluster = append(cluster, ni)
				queue = append(queue, ni)
				// Update the running mean.
				n := float64(len(cluster))
				mean = mean.Scale((n - 1) / n).Add(nv.Flow.Scale(1 / n))
			}
		}
		if len(cluster) >= cfg.MinClusterSize {
			clusters = append(clusters, cluster)
		}
	}
	return clusters
}

func oracleMergeClusters(f *mvfield.Field, clusters [][]int, cfg ForegroundConfig) [][]int {
	type info struct {
		members []int
		mean    geom.Vec2
		bbox    imgx.Rect
	}
	items := make([]*info, 0, len(clusters))
	for _, c := range clusters {
		items = append(items, &info{members: c, mean: meanFlow(f, c), bbox: gridBBox(c, f.MBW)})
	}
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(items) && !merged; i++ {
			for j := i + 1; j < len(items); j++ {
				a, b := items[i], items[j]
				if !mergeCompatible(a.mean, b.mean, a.bbox, b.bbox, cfg) {
					continue
				}
				a.members = append(a.members, b.members...)
				a.mean = meanFlow(f, a.members)
				a.bbox = a.bbox.Union(b.bbox)
				items = append(items[:j], items[j+1:]...)
				merged = true
				break
			}
		}
	}
	out := make([][]int, 0, len(items))
	for _, it := range items {
		out = append(out, it.members)
	}
	return out
}

func oracleBuildObject(f *mvfield.Field, members []int) ForegroundObject {
	pts := make([]geom.Vec2, 0, len(members))
	for _, i := range members {
		pts = append(pts, mbCenter(i, f.MBW))
	}
	hull := geom.AppendConvexHull(nil, nil, pts)
	bb := gridBBox(members, f.MBW)
	return ForegroundObject{
		Members: members,
		Hull:    hull,
		BBox: imgx.Rect{
			MinX: bb.MinX * codec.MBSize, MinY: bb.MinY * codec.MBSize,
			MaxX: bb.MaxX * codec.MBSize, MaxY: bb.MaxY * codec.MBSize,
		},
		MeanFlow: meanFlow(f, members),
	}
}

func oracleTrackDetections(dets []detect.Detection, field *mvfield.Field, cx, cy float64, w, h int, cfg TrackConfig) []detect.Detection {
	out := make([]detect.Detection, 0, len(dets))
	for _, d := range dets {
		shift, scale := oracleBoxMotion(field, d.Box, cx, cy)
		ccx := (float64(d.Box.MinX+d.Box.MaxX))/2 + shift.X
		ccy := (float64(d.Box.MinY+d.Box.MaxY))/2 + shift.Y
		halfW := float64(d.Box.W()) / 2 * scale
		halfH := float64(d.Box.H()) / 2 * scale
		nb := imgx.Rect{
			MinX: int(math.Round(ccx - halfW)), MinY: int(math.Round(ccy - halfH)),
			MaxX: int(math.Round(ccx + halfW)), MaxY: int(math.Round(ccy + halfH)),
		}
		clipped := nb.ClipTo(w, h)
		if nb.Area() == 0 || clipped.Area() < nb.Area()/3 || clipped.Empty() {
			continue // mostly out of frame
		}
		score := d.Score * cfg.ScoreDecay
		if score < cfg.MinScore {
			continue
		}
		out = append(out, detect.Detection{
			Class:   d.Class,
			Box:     clipped,
			Score:   score,
			Tracked: true,
		})
	}
	return out
}

func oracleBoxMotion(field *mvfield.Field, box imgx.Rect, cx, cy float64) (geom.Vec2, float64) {
	if field == nil {
		return geom.Vec2{}, 1
	}
	bcx := float64(box.MinX+box.MaxX)/2 - cx // box center, centered coords
	bcy := float64(box.MinY+box.MaxY)/2 - cy
	var rows [][]float64
	var rhs []float64
	var sum geom.Vec2
	n := 0
	for _, v := range field.Vectors {
		px := v.Pos.X + cx
		py := v.Pos.Y + cy
		if px < float64(box.MinX) || px >= float64(box.MaxX) ||
			py < float64(box.MinY) || py >= float64(box.MaxY) || !v.Valid {
			continue
		}
		rows = append(rows,
			[]float64{1, 0, v.Pos.X - bcx},
			[]float64{0, 1, v.Pos.Y - bcy})
		rhs = append(rhs, v.Flow.X, v.Flow.Y)
		sum = sum.Add(v.Flow)
		n++
	}
	if n == 0 {
		return geom.Vec2{}, 1
	}
	mean := sum.Scale(1 / float64(n))
	if n < 4 {
		return mean, 1
	}
	u, err := oracleLeastSquares(rows, rhs)
	if err != nil {
		return mean, 1
	}
	// Per-frame scale rate clamped: codec vectors are too coarse to
	// support extreme divergence estimates.
	s := 1 + geom.Clamp(u[2], -0.12, 0.12)
	return geom.Vec2{X: u[0], Y: u[1]}, s
}

func oracleLeastSquares(a [][]float64, b []float64) ([]float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return nil, errors.New("geom: dimension mismatch")
	}
	n := len(a[0])
	if len(a) < n {
		return nil, errors.New("geom: underdetermined system")
	}
	// Build normal equations M·u = v with M = AᵀA, v = Aᵀb.
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
	}
	for r, row := range a {
		if len(row) != n {
			return nil, errors.New("geom: ragged matrix")
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m[i][j] += row[i] * row[j]
			}
			m[i][n] += row[i] * b[r]
		}
	}
	return oracleGaussSolve(m)
}

func oracleGaussSolve(m [][]float64) ([]float64, error) {
	n := len(m)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, geom.ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for j := col; j <= n; j++ {
			m[col][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := col; j <= n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	u := make([]float64, n)
	for i := range u {
		u[i] = m[i][n]
	}
	return u, nil
}

// randomOracleScene draws one field of the oracle properties: a driving
// scene on a grid whose size varies with the seed (so a scratch carried
// through the sequence sees sizes go up and down), with up to four moving
// objects — some split by holes of untrusted vectors, some sharing a
// direction so they merge — plain-texture noise, and the degenerate kinds:
// no usable ground, ground only.
func randomOracleScene(rng *rand.Rand) *mvfield.Field {
	mbw, mbh := 6+rng.Intn(20), 6+rng.Intn(10)
	const focal = 250.0
	kind := rng.Intn(8)
	type obj struct {
		x0, y0, x1, y1 int
		flow           geom.Vec2
	}
	objs := make([]obj, rng.Intn(5))
	for i := range objs {
		x, y := rng.Intn(mbw-2), mbh/2-1+rng.Intn(mbh/2)
		objs[i] = obj{x, y, x + 1 + rng.Intn(4), y + 1 + rng.Intn(3),
			geom.Vec2{X: float64(rng.Intn(13) - 6), Y: float64(rng.Intn(5) - 2)}}
		if i > 0 && rng.Intn(2) == 0 {
			objs[i].flow = objs[i-1].flow // same direction: merge candidates
		}
	}
	noise := rng.Float64() * 0.5
	return buildField(mbw, mbh, focal, func(bx, by int, pos geom.Vec2) (geom.Vec2, bool) {
		if kind == 0 {
			return geom.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}, rng.Intn(4) > 0 // no ground
		}
		for _, o := range objs {
			if kind != 1 && bx >= o.x0 && bx < o.x1 && by >= o.y0 && by < o.y1 {
				if rng.Intn(6) == 0 {
					return geom.Vec2{}, false // a hole
				}
				return o.flow.Add(geom.Vec2{X: rng.NormFloat64() * noise, Y: rng.NormFloat64() * noise}), true
			}
		}
		if pos.Y > 8 {
			z := focal * 1.4 / pos.Y
			v := pos.Scale(0.9 / z)
			return geom.Vec2{X: v.X + rng.NormFloat64()*noise, Y: v.Y + rng.NormFloat64()*noise}, true
		}
		if rng.Float64() < 0.3 {
			return geom.Vec2{X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3}, true
		}
		return geom.Vec2{}, rng.Intn(2) == 0
	})
}

// TestForegroundAndTrackingMatchOracle holds extractForeground and
// TrackDetections to their oracles over 400 seeded scenes: masks, hulls,
// seeds, objects and tracked boxes deep-equal (a nil result included),
// ExtractForeground's wrapper the same — on a fresh scratch and on one
// carried dirty through the whole sequence.
func TestForegroundAndTrackingMatchOracle(t *testing.T) {
	var dirty fgScratch
	results, objects, merges, tracked := 0, 0, 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomOracleScene(rng)
		before := f.Clone()
		cfg := DefaultForegroundConfig()
		cfg.MinClusterSize = 1 + rng.Intn(3)
		cfg.DilateMBs = rng.Intn(3)
		cfg.MergeGapMBs = rng.Intn(4)
		foe := geom.Vec2{X: rng.NormFloat64() * 4, Y: rng.NormFloat64() * 4}

		want := oracleExtractForeground(f, foe, cfg)
		if want != nil {
			results++
			objects += len(want.Objects)
			grown := len(oracleGrowClusters(f, want.GroundMask, want.Seeds,
				-cfg.MaxAboveHorizonFrac*float64(f.MBH*codec.MBSize)/2, cfg))
			merges += grown - len(want.Objects)
		}
		for name, got := range map[string]*ForegroundResult{
			"wrapper": ExtractForeground(f, foe, cfg),
			"fresh":   extractForeground(&fgScratch{}, f, foe, cfg),
			"dirty":   extractForeground(&dirty, f, foe, cfg),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: foreground differs from the oracle's:\n got %+v\nwant %+v", seed, name, got, want)
			}
		}

		w, h := f.MBW*codec.MBSize, f.MBH*codec.MBSize
		dets := randomDetections(rng, w, h, rng.Intn(7))
		var field *mvfield.Field
		if rng.Intn(10) > 0 {
			field = f
		}
		wantT := oracleTrackDetections(dets, field, float64(w)/2, float64(h)/2, w, h, DefaultTrackConfig())
		gotT := TrackDetections(dets, field, float64(w)/2, float64(h)/2, w, h, DefaultTrackConfig())
		if !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("seed %d: tracked boxes %+v, oracle %+v", seed, gotT, wantT)
		}
		tracked += len(wantT)
		if !reflect.DeepEqual(f, before) {
			t.Fatalf("seed %d: the field was modified", seed)
		}
	}
	// The generator must reach the paths the rewrite touched.
	if results < 200 || results == 400 || objects < 200 || merges < 20 || tracked < 400 {
		t.Errorf("weak corpus: %d results, %d objects, %d merges, %d tracked boxes", results, objects, merges, tracked)
	}
}

// steadyClip is the clip the steady-state allocation test and benchmark run
// on, rendered once per process: the agent is moving — so every frame
// extracts a foreground — from its start to past frame steadyWarm+steadyRun.
var steadyClip = sync.OnceValue(func() *world.Clip {
	p := world.RobotCarLike()
	p.ClipDuration = 4
	return world.GenerateClip(p, 7)
})

// steadyWarm is how many frames steadyAgent runs before handing the agent
// over: enough for the scratch to grow and the detections to be cached.
const steadyWarm = 28

// steadyRun is how many frames steadyAgent hands over.
const steadyRun = 21

// steadyAgent returns an agent warmed up over the first steadyWarm frames of
// the clip, the steadyRun frames to feed it next and the clip's frame rate.
func steadyAgent(tb testing.TB) (*Agent, []*imgx.Plane, float64) {
	tb.Helper()
	clip := steadyClip()
	agent, err := NewAgent(DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal))
	if err != nil {
		tb.Fatal(err)
	}
	agent.OnDetections(goldenDetections(clip.W, clip.H))
	for i, frame := range clip.Frames[:steadyWarm] {
		stepAgent(tb, agent, frame, float64(i)/clip.FPS)
	}
	return agent, clip.Frames[steadyWarm : steadyWarm+steadyRun], clip.FPS
}

// stepAgent is one iteration of the loop every transport runs: encode, track
// the cached boxes forward, feed back the upload, cache fresh detections.
func stepAgent(tb testing.TB, agent *Agent, frame *imgx.Plane, now float64) {
	fr, err := agent.ProcessFrame(frame, now)
	if err != nil {
		tb.Fatal(err)
	}
	dets := agent.TrackLocally(fr.RawField)
	agent.OnTransmitComplete(now, now+float64(fr.Encoded.NumBits)/2e6, fr.Encoded.NumBits)
	agent.OnDetections(dets)
}

// The steady-state frame's allocation ceiling: the whole-number mean count
// testing.AllocsPerRun reports, and bytes: 52 447 B a frame, as measured
// when the count was last cut, with 25 % and 64 B of headroom (65 622.75,
// so 65 622 whole bytes).
const (
	maxAllocsPerFrame = 13
	maxBytesPerFrame  = 52_447*5/4 + 64
)

// TestAgentAllocsPerFrame pins what a steady-state frame allocates, on
// BenchmarkAgentProcessFrame's fixture: only what the agent hands to its
// caller. ProcessFrame hands out 13 objects on a frame that extracts a
// foreground: the FrameResult (1), the raw and the corrected flow field
// (struct + vectors each, 4), the ForegroundResult (struct, object list,
// and one array each for the masks, the index lists and the contours, 5)
// and the clone of the encoder's frame (EncodedFrame, QPs, Data: 3).
// TrackLocally adds the tracked detections (1) on a frame that still tracks
// a box, the first 14 of the 21 here, and the odd payload buffer grows
// mid-frame: the mean is 13.81, and AllocsPerRun reports the whole-number
// mean, 13. The bytes are runtime.MemStats.TotalAlloc over the same frames.
func TestAgentAllocsPerFrame(t *testing.T) {
	agent, frames, fps := steadyAgent(t)
	i := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(len(frames)-1, func() {
		stepAgent(t, agent, frames[i], float64(steadyWarm+i)/fps)
		i++
	})
	runtime.ReadMemStats(&after)
	if allocs > maxAllocsPerFrame {
		t.Errorf("%.0f allocs per steady-state frame, want at most %d", allocs, maxAllocsPerFrame)
	}
	if b := (after.TotalAlloc - before.TotalAlloc) / uint64(i); b > maxBytesPerFrame {
		t.Errorf("%d B per steady-state frame, want at most %d", b, maxBytesPerFrame)
	}
}
