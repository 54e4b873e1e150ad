package mvfield

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dive/internal/geom"
)

// The oracles below are today's bodies of EstimateFOE,
// RotationEstimator.Estimate and NormalizedMagnitudes (with the models and
// the RANSAC driver they ran on), moved here verbatim before PR 22 rewrote
// them to run on a caller-owned scratch. The production forms must take the
// same rng draws in the same order and return the same bits.

// oracleModel, oracleRANSAC and oracleDrawSample are geom.RANSAC's interface{}
// form as it stood at PR 22's parent: boxed parameters, fresh buffers per
// call, rng.Perm on the dense path.
type oracleModel interface {
	// Len returns the number of data points.
	Len() int
	// Fit estimates parameters from the selected points. It may fail for
	// degenerate selections.
	Fit(indices []int) (params interface{}, err error)
	// Residual returns the absolute residual of point i under params.
	Residual(i int, params interface{}) float64
}

func oracleRANSAC(m oracleModel, cfg geom.RANSACConfig, rng *rand.Rand) (interface{}, []int, error) {
	n := m.Len()
	if n < cfg.MinSamples {
		return nil, nil, errors.New("geom: not enough points for ransac")
	}
	// Two inlier buffers serve every hypothesis: one holds the best
	// consensus set so far, the other collects the current hypothesis's, and
	// they swap when the current one wins.
	bestInliers := make([]int, 0, n)
	inliers := make([]int, 0, n)
	sample := make([]int, cfg.MinSamples)
	for it := 0; it < cfg.Iterations; it++ {
		oracleDrawSample(sample, n, rng)
		params, err := m.Fit(sample)
		if err != nil {
			continue
		}
		inliers = inliers[:0]
		for i := 0; i < n; i++ {
			if m.Residual(i, params) <= cfg.InlierThreshold {
				inliers = append(inliers, i)
			}
		}
		if len(inliers) > len(bestInliers) {
			bestInliers, inliers = inliers, bestInliers
		}
	}
	best := len(bestInliers)
	if best == 0 || best < cfg.MinSamples || (cfg.MinInliers > 0 && best < cfg.MinInliers) {
		return nil, nil, geom.ErrNoConsensus
	}
	params, err := m.Fit(bestInliers)
	if err != nil {
		return nil, nil, err
	}
	return params, bestInliers, nil
}

func oracleDrawSample(dst []int, n int, rng *rand.Rand) {
	k := len(dst)
	if k*4 >= n {
		// Dense draw: partial Fisher–Yates over an index array.
		idx := rng.Perm(n)
		copy(dst, idx[:k])
		return
	}
	// Sparse draw: redraw on a repeat. k is a handful, so scanning the
	// indices drawn so far beats a set.
draw:
	for i := 0; i < k; {
		v := rng.Intn(n)
		for _, u := range dst[:i] {
			if u == v {
				continue draw
			}
		}
		dst[i] = v
		i++
	}
}

type oracleFoeModel struct {
	vecs []Vector
}

func (m *oracleFoeModel) Len() int { return len(m.vecs) }

func (m *oracleFoeModel) Fit(idx []int) (interface{}, error) {
	a := make([][2]float64, 0, len(idx))
	b := make([]float64, 0, len(idx))
	for _, i := range idx {
		v := m.vecs[i]
		a = append(a, [2]float64{v.Flow.Y, -v.Flow.X})
		b = append(b, v.Flow.Y*v.Pos.X-v.Flow.X*v.Pos.Y)
	}
	u, err := geom.LeastSquares2(a, b)
	if err != nil {
		return nil, err
	}
	return geom.Vec2{X: u[0], Y: u[1]}, nil
}

func (m *oracleFoeModel) Residual(i int, params interface{}) float64 {
	foe := params.(geom.Vec2)
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

func oracleEstimateFOE(f *Field, rng *rand.Rand) (geom.Vec2, error) {
	m := &oracleFoeModel{}
	for _, v := range f.Vectors {
		if v.Valid && !v.Zero && v.Flow.Norm() >= 1 {
			m.vecs = append(m.vecs, v)
		}
	}
	if len(m.vecs) < 8 {
		return geom.Vec2{}, ErrNoFOE
	}
	params, _, err := oracleRANSAC(m, geom.RANSACConfig{
		MinSamples:      2,
		Iterations:      64,
		InlierThreshold: 2.0,
		MinInliers:      len(m.vecs) / 4,
	}, rng)
	if err != nil {
		return geom.Vec2{}, err
	}
	return params.(geom.Vec2), nil
}

type oracleRotModel struct {
	vecs  []Vector
	focal float64
}

type oracleRotParams struct{ phiX, phiY float64 }

func (m *oracleRotModel) Len() int { return len(m.vecs) }

func (m *oracleRotModel) Fit(idx []int) (interface{}, error) {
	a := make([][2]float64, 0, len(idx))
	b := make([]float64, 0, len(idx))
	for _, i := range idx {
		v := m.vecs[i]
		a = append(a, [2]float64{v.Pos.X * m.focal, v.Pos.Y * m.focal})
		b = append(b, v.Pos.X*v.Flow.Y-v.Pos.Y*v.Flow.X)
	}
	u, err := geom.LeastSquares2(a, b)
	if err != nil {
		return nil, err
	}
	return oracleRotParams{phiX: u[0], phiY: u[1]}, nil
}

func (m *oracleRotModel) Residual(i int, params interface{}) float64 {
	p := params.(oracleRotParams)
	v := m.vecs[i]
	lhs := v.Pos.X*m.focal*p.phiX + v.Pos.Y*m.focal*p.phiY
	rhs := v.Pos.X*v.Flow.Y - v.Pos.Y*v.Flow.X
	// Normalize by the lever arm so the residual is in flow pixels.
	lever := v.Pos.Norm()
	if lever < 1 {
		lever = 1
	}
	return absf(lhs-rhs) / lever
}

func oracleEstimate(e *RotationEstimator, f *Field, foe geom.Vec2, rng *rand.Rand) (phiX, phiY float64, err error) {
	candidates := make([]Vector, 0, len(f.Vectors))
	for _, v := range f.Vectors {
		if v.Valid && !v.Zero {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) < 4 {
		return 0, 0, ErrNoRotation
	}
	k := e.K
	if k > len(candidates) {
		k = len(candidates)
	}
	var chosen []Vector
	switch e.Strategy {
	case RandomSampling:
		perm := rng.Perm(len(candidates))
		chosen = make([]Vector, 0, k)
		for _, i := range perm[:k] {
			chosen = append(chosen, candidates[i])
		}
	default: // RSampling
		sort.Slice(candidates, func(i, j int) bool {
			return candidates[i].Pos.Dist(foe) < candidates[j].Pos.Dist(foe)
		})
		chosen = candidates[:k]
	}
	oracleChosen = chosen // the one addition: lets the test compare the prefix's order
	m := &oracleRotModel{vecs: chosen, focal: f.Focal}
	params, _, rerr := oracleRANSAC(m, geom.RANSACConfig{
		MinSamples:      2,
		Iterations:      rotIterations,
		InlierThreshold: rotInlierThreshold,
		MinInliers:      k / 4,
	}, rng)
	if rerr != nil {
		// Fall back to a plain least-squares fit over all chosen vectors;
		// better a rough estimate than none.
		p, ferr := m.Fit(oracleAllIndices(len(chosen)))
		if ferr != nil {
			return 0, 0, ErrNoRotation
		}
		rp := p.(oracleRotParams)
		return rp.phiX, rp.phiY, nil
	}
	rp := params.(oracleRotParams)
	return rp.phiX, rp.phiY, nil
}

func oracleAllIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func oracleNormalizedMagnitudes(f *Field, foe geom.Vec2) []NormalizedMagnitude {
	out := make([]NormalizedMagnitude, len(f.Vectors))
	for i, v := range f.Vectors {
		out[i] = NormalizedMagnitude{Index: i}
		if !v.Valid || v.Zero {
			continue
		}
		flowN := v.Flow.Norm()
		if flowN < normMinFlow {
			continue
		}
		if v.Pos.Y < normMinY {
			continue
		}
		r := v.Pos.Dist(foe)
		if r < 1e-6 {
			continue
		}
		if !PointsToward(v.Pos, v.Flow, foe, normCosTol) {
			continue
		}
		out[i] = NormalizedMagnitude{
			Index: i,
			Value: flowN / (r * v.Pos.Y),
			OK:    true,
		}
	}
	return out
}

// oracleChosen is the vector subset the last oracleEstimate fitted, in order.
var oracleChosen []Vector

// randomOracleField draws one field of the oracle properties: grid size,
// focal length and content all vary with the seed, so a scratch carried
// through the sequence sees sizes go up and down. The kinds are the cases the
// estimators branch on.
func randomOracleField(rng *rand.Rand) *Field {
	mbw, mbh := 2+rng.Intn(24), 2+rng.Intn(14)
	focal := 150 + rng.Float64()*200
	kind := rng.Intn(6)
	foe := geom.Vec2{X: rng.NormFloat64() * 20, Y: rng.NormFloat64() * 10}
	phiX, phiY := rng.NormFloat64()*0.01, rng.NormFloat64()*0.01
	return syntheticField(mbw, mbh, focal, func(pos geom.Vec2) (geom.Vec2, bool) {
		switch kind {
		case 0:
			// All valid, exact expansion about the principal point: mirror
			// image macroblocks are exactly equidistant from FOE (0, 0).
			return pos.Scale(0.125), true
		case 1:
			// Sparse: a handful of usable vectors, often fewer than 8 or 4.
			if rng.Intn(mbw*mbh) >= 6 {
				return geom.Vec2{}, rng.Intn(2) == 0
			}
			return pos.Sub(foe).Scale(0.05), true
		case 2:
			// One flow everywhere: every two-point FOE sample is singular.
			if rng.Intn(8) == 0 {
				return geom.Vec2{X: float64(rng.Intn(5) - 2), Y: float64(rng.Intn(5) - 2)}, true
			}
			return geom.Vec2{X: 3, Y: 1}, true
		case 3:
			// Noise: no hypothesis gathers a consensus.
			return geom.Vec2{X: rng.NormFloat64() * 9, Y: rng.NormFloat64() * 9}, rng.Intn(10) > 0
		default:
			// Translation plus rotation, quantized like codec vectors, with
			// outliers, zero vectors and untrusted ones.
			if rng.Intn(12) == 0 {
				return geom.Vec2{}, true
			}
			if rng.Intn(7) == 0 {
				return geom.Vec2{X: float64(rng.Intn(17) - 8), Y: float64(rng.Intn(17) - 8)}, rng.Intn(3) > 0
			}
			v := pos.Sub(foe).Scale(0.04).Add(RotationalFlow(focal, pos.X, pos.Y, phiX, phiY))
			return geom.Vec2{X: math.Round(v.X*2) / 2, Y: math.Round(v.Y*2) / 2}, true
		}
	})
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestEstimatorsMatchOracle holds EstimateWith, EstimateFOEWith and
// NormalizedMagnitudesInto to their oracles over 400 seeded fields: results
// equal by bit pattern, errors equal, the R-sampled prefix equal in order
// (ties included), and the rng left in the same state. Each runs twice, on a
// fresh scratch and on one carried dirty through the whole sequence.
func TestEstimatorsMatchOracle(t *testing.T) {
	var dirty Scratch
	var dirtyNorms []NormalizedMagnitude
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomOracleField(rng)
		before := f.Clone()
		foe := geom.Vec2{}
		if rng.Intn(3) == 0 {
			foe = geom.Vec2{X: rng.NormFloat64() * 15, Y: rng.NormFloat64() * 15}
		}
		e := &RotationEstimator{
			K:        []int{3, 8, 70, 1000}[rng.Intn(4)],
			Strategy: []Sampling{RSampling, RSampling, RandomSampling}[rng.Intn(3)],
		}

		rngO := rand.New(rand.NewSource(seed + 1000))
		wantX, wantY, wantRotErr := oracleEstimate(e, f, foe, rngO)
		wantChosen := oracleChosen
		wantFOE, wantFOEErr := oracleEstimateFOE(f, rngO)
		wantNext := rngO.Int63()
		wantNorms := oracleNormalizedMagnitudes(f, foe)
		outcomes[fmtOutcome(wantRotErr, wantFOEErr)]++

		for name, s := range map[string]*Scratch{"fresh": {}, "dirty": &dirty} {
			rngP := rand.New(rand.NewSource(seed + 1000))
			gotX, gotY, gotRotErr := e.EstimateWith(s, f, foe, rngP)
			if !sameErr(gotRotErr, wantRotErr) || !sameFloat(gotX, wantX) || !sameFloat(gotY, wantY) {
				t.Fatalf("seed %d %s: Estimate (%v, %v, %v), oracle (%v, %v, %v)", seed, name, gotX, gotY, gotRotErr, wantX, wantY, wantRotErr)
			}
			if len(s.keys) >= 4 {
				if len(s.pts) != len(wantChosen) {
					t.Fatalf("seed %d %s: %d vectors chosen, oracle %d", seed, name, len(s.pts), len(wantChosen))
				}
				for j, v := range wantChosen {
					if s.pts[j] != newRotPoint(v, f.Focal) {
						t.Fatalf("seed %d %s: chosen vector %d differs from the oracle's", seed, name, j)
					}
				}
			}
			gotFOE, gotFOEErr := EstimateFOEWith(s, f, rngP)
			if !sameErr(gotFOEErr, wantFOEErr) || !sameFloat(gotFOE.X, wantFOE.X) || !sameFloat(gotFOE.Y, wantFOE.Y) {
				t.Fatalf("seed %d %s: EstimateFOE (%v, %v), oracle (%v, %v)", seed, name, gotFOE, gotFOEErr, wantFOE, wantFOEErr)
			}
			if rngP.Int63() != wantNext {
				t.Fatalf("seed %d %s: rng diverged from the oracle's", seed, name)
			}
		}
		for name, dst := range map[string][]NormalizedMagnitude{"fresh": nil, "dirty": dirtyNorms} {
			got := NormalizedMagnitudesInto(dst, f, foe)
			if !reflect.DeepEqual(got, wantNorms) {
				t.Fatalf("seed %d %s: normalized magnitudes differ from the oracle's", seed, name)
			}
			if name == "dirty" {
				dirtyNorms = got
			}
		}
		if !reflect.DeepEqual(f, before) {
			t.Fatalf("seed %d: an estimator modified its input field", seed)
		}
	}
	// The generator must reach every branch the estimators have.
	for _, want := range []string{"rot ok, foe ok", "rot ok, foe err", "rot err, foe err"} {
		if outcomes[want] == 0 {
			t.Errorf("no field ended %q: %v", want, outcomes)
		}
	}
}

func fmtOutcome(rot, foe error) string {
	s := map[bool]string{true: "ok", false: "err"}
	return "rot " + s[rot == nil] + ", foe " + s[foe == nil]
}

// allocFree fails t unless op allocates nothing once warm: over the 200
// calls testing.AllocsPerRun counts after its warm-up call, the
// whole-number mean count must be 0 and runtime.MemStats.TotalAlloc at most
// 64 B a call. The byte bound fails an allocation on only some calls, which
// the truncated count reads as 0. Its 64 B, over 200 calls, leave room for
// a rare allocation made outside op while it runs (one of 5.5 kB was seen
// over 32 calls of a warm encoder).
func allocFree(t *testing.T, name string, op func()) {
	t.Helper()
	const runs = 200
	var before, after runtime.MemStats
	warm := false
	allocs := testing.AllocsPerRun(runs, func() {
		op()
		if !warm {
			warm = true
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; allocs != 0 || b > 64 {
		t.Errorf("%s: %.0f allocs and %d B per op, want 0 and at most 64", name, allocs, b)
	}
}

// TestEstimatorsAllocateNothingWarm pins the estimators at zero allocations
// once their scratch has seen the field size: on a synthetic field, and on
// the rendered field of BenchmarkEstimateRotation and BenchmarkEstimateFOE.
func TestEstimatorsAllocateNothingWarm(t *testing.T) {
	f := syntheticField(20, 12, 250, func(pos geom.Vec2) (geom.Vec2, bool) {
		return pos.Scale(0.05).Add(RotationalFlow(250, pos.X, pos.Y, 0.004, -0.007)), true
	})
	var s Scratch
	var norms []NormalizedMagnitude
	rng := rand.New(rand.NewSource(5))
	e := NewRotationEstimator()
	run := func() {
		if _, _, err := e.EstimateWith(&s, f, geom.Vec2{}, rng); err != nil {
			t.Fatal(err)
		}
		if _, err := EstimateFOEWith(&s, f, rng); err != nil {
			t.Fatal(err)
		}
		norms = NormalizedMagnitudesInto(norms, f, geom.Vec2{})
	}
	run()
	allocFree(t, "warm estimators", run)
	allocFree(t, "bench EstimateRotation", estimateRotationOp(t))
	allocFree(t, "bench EstimateFOE", estimateFOEOp(t))
}
