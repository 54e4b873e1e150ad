package geom

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// lineModel fits y = m·x + c to 2-D points; the classic RANSAC demo.
type lineModel struct {
	pts []Vec2
}

type lineParams struct{ m, c float64 }

func (l *lineModel) Len() int { return len(l.pts) }

func (l *lineModel) Fit(idx []int) (lineParams, error) {
	var a [][]float64
	var b []float64
	for _, i := range idx {
		a = append(a, []float64{l.pts[i].X, 1})
		b = append(b, l.pts[i].Y)
	}
	u, err := LeastSquares(a, b)
	if err != nil {
		return lineParams{}, err
	}
	return lineParams{u[0], u[1]}, nil
}

func (l *lineModel) Residual(i int, p lineParams) float64 {
	return math.Abs(l.pts[i].Y - (p.m*l.pts[i].X + p.c))
}

func TestRANSACLineWithOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	model := &lineModel{}
	// 70 inliers on y = 2x + 1 with small noise, 30 gross outliers.
	for i := 0; i < 70; i++ {
		x := rng.Float64() * 10
		model.pts = append(model.pts, Vec2{x, 2*x + 1 + rng.NormFloat64()*0.05})
	}
	for i := 0; i < 30; i++ {
		model.pts = append(model.pts, Vec2{rng.Float64() * 10, rng.Float64()*40 - 20})
	}
	params, inliers, err := RANSAC(model, RANSACConfig{
		MinSamples:      2,
		Iterations:      100,
		InlierThreshold: 0.3,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := params
	if math.Abs(p.m-2) > 0.05 || math.Abs(p.c-1) > 0.2 {
		t.Errorf("fit = %+v, want m≈2 c≈1", p)
	}
	if len(inliers) < 60 {
		t.Errorf("found only %d inliers", len(inliers))
	}
}

func TestRANSACNotEnoughPoints(t *testing.T) {
	model := &lineModel{pts: []Vec2{{0, 0}}}
	_, _, err := RANSAC(model, RANSACConfig{MinSamples: 2, Iterations: 10, InlierThreshold: 1}, rand.New(rand.NewSource(1)), nil)
	if err == nil {
		t.Error("expected error with too few points")
	}
}

func TestRANSACNoConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := &lineModel{}
	for i := 0; i < 20; i++ {
		model.pts = append(model.pts, Vec2{rng.Float64() * 10, rng.Float64() * 10})
	}
	_, _, err := RANSAC(model, RANSACConfig{
		MinSamples:      2,
		Iterations:      50,
		InlierThreshold: 1e-9, // nothing but the sample itself can be an inlier
		MinInliers:      10,
	}, rng, nil)
	if !errors.Is(err, ErrNoConsensus) {
		t.Errorf("expected ErrNoConsensus, got %v", err)
	}
}

func TestDrawSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 10, 1000} {
		for _, k := range []int{2, 4} {
			dst := make([]int, k)
			drawSample(dst, n, rng, nil)
			seen := map[int]bool{}
			for _, v := range dst {
				if v < 0 || v >= n {
					t.Fatalf("index %d out of range [0,%d)", v, n)
				}
				if seen[v] {
					t.Fatalf("duplicate index %d (n=%d k=%d)", v, n, k)
				}
				seen[v] = true
			}
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if m := Mean(xs); !almostEq(m, 3, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if m := Median(xs); !almostEq(m, 3, 1e-12) {
		t.Errorf("Median = %v", m)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("P0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Errorf("P100 = %v", p)
	}
	if p := Percentile(xs, 25); !almostEq(p, 2, 1e-12) {
		t.Errorf("P25 = %v", p)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
}

func TestEmpiricalCDF(t *testing.T) {
	cdf := EmpiricalCDF([]float64{3, 1, 2})
	if len(cdf) != 3 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].Value != 1 || !almostEq(cdf[0].Fraction, 1.0/3, 1e-12) {
		t.Errorf("first point = %+v", cdf[0])
	}
	if cdf[2].Value != 3 || cdf[2].Fraction != 1 {
		t.Errorf("last point = %+v", cdf[2])
	}
	if EmpiricalCDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Error("ClampInt misbehaves")
	}
}

func TestRANSACSurvivesDegenerateSamples(t *testing.T) {
	// Many duplicated points make 2-point samples rank-deficient; RANSAC
	// must skip failed fits and still find the model from good draws.
	rng := rand.New(rand.NewSource(77))
	model := &lineModel{}
	for i := 0; i < 30; i++ {
		model.pts = append(model.pts, Vec2{5, 11}) // y = 2*5+1, duplicated
	}
	for i := 0; i < 30; i++ {
		x := rng.Float64() * 10
		model.pts = append(model.pts, Vec2{x, 2*x + 1})
	}
	params, inliers, err := RANSAC(model, RANSACConfig{
		MinSamples: 2, Iterations: 200, InlierThreshold: 0.1,
	}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := params
	if math.Abs(p.m-2) > 0.05 || math.Abs(p.c-1) > 0.3 {
		t.Errorf("fit = %+v", p)
	}
	if len(inliers) < 50 {
		t.Errorf("inliers = %d", len(inliers))
	}
}

// oracleModel is RANSACModel as it stood before the parameters became a
// value type: every hypothesis boxed into an interface{}.
type oracleModel interface {
	Len() int
	Fit(indices []int) (params interface{}, err error)
	Residual(i int, params interface{}) float64
}

// boxed runs a value-typed model under the oracle driver.
type boxed[P any, M RANSACModel[P]] struct{ m M }

func (b boxed[P, M]) Len() int { return b.m.Len() }
func (b boxed[P, M]) Fit(idx []int) (interface{}, error) {
	p, err := b.m.Fit(idx)
	if err != nil {
		return nil, err
	}
	return p, nil
}
func (b boxed[P, M]) Residual(i int, p interface{}) float64 { return b.m.Residual(i, p.(P)) }

// oracleRANSAC is RANSAC as it stood before the inlier buffers were reused:
// a fresh append-grown inlier slice per hypothesis and a map per sparse
// draw. The production loop must consume the same rng draws and return the
// same parameters and inliers.
func oracleRANSAC(m oracleModel, cfg RANSACConfig, rng *rand.Rand) (interface{}, []int, error) {
	n := m.Len()
	if n < cfg.MinSamples {
		return nil, nil, errors.New("geom: not enough points for ransac")
	}
	best := -1
	var bestInliers []int
	sample := make([]int, cfg.MinSamples)
	for it := 0; it < cfg.Iterations; it++ {
		oracleDrawSample(sample, n, rng)
		params, err := m.Fit(sample)
		if err != nil {
			continue
		}
		var inliers []int
		for i := 0; i < n; i++ {
			if m.Residual(i, params) <= cfg.InlierThreshold {
				inliers = append(inliers, i)
			}
		}
		if len(inliers) > best {
			best = len(inliers)
			bestInliers = inliers
		}
	}
	if bestInliers == nil || best < cfg.MinSamples || (cfg.MinInliers > 0 && best < cfg.MinInliers) {
		return nil, nil, ErrNoConsensus
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
		idx := rng.Perm(n)
		copy(dst, idx[:k])
		return
	}
	seen := make(map[int]bool, k)
	for i := 0; i < k; {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			dst[i] = v
			i++
		}
	}
}

// TestRANSACMatchesOracle runs production and oracle from equal seeds over
// dense and sparse draws, outlier-heavy data (ties and late winners),
// duplicated points (failed fits) and thresholds that end in ErrNoConsensus:
// parameters, inliers, error and the rng's state afterwards must agree —
// with a fresh scratch per run and with one scratch carried dirty through
// every run, whose sizes go up and down with the seed.
func TestRANSACMatchesOracle(t *testing.T) {
	var dirty RANSACScratch
	for seed := int64(1); seed <= 200; seed++ {
		data := rand.New(rand.NewSource(seed))
		model := &lineModel{}
		n := 3 + data.Intn(120)
		for i := 0; i < n; i++ {
			x := float64(data.Intn(12)) // few distinct abscissae: degenerate samples happen
			y := 2*x + 1 + data.NormFloat64()*0.05
			if data.Intn(3) == 0 {
				y = data.Float64()*40 - 20
			}
			model.pts = append(model.pts, Vec2{x, y})
		}
		cfg := RANSACConfig{
			MinSamples:      2 + data.Intn(3),
			Iterations:      1 + data.Intn(60),
			InlierThreshold: []float64{1e-12, 0.1, 0.5}[data.Intn(3)],
			MinInliers:      data.Intn(2) * data.Intn(n),
		}
		rngB := rand.New(rand.NewSource(seed + 100))
		wantP, wantIn, wantErr := oracleRANSAC(boxed[lineParams, *lineModel]{model}, cfg, rngB)
		wantNext := rngB.Int63()
		for name, scratch := range map[string]*RANSACScratch{"fresh": nil, "dirty": &dirty} {
			rngA := rand.New(rand.NewSource(seed + 100))
			gotP, gotIn, gotErr := RANSAC(model, cfg, rngA, scratch)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("seed %d %s: err %v, oracle %v", seed, name, gotErr, wantErr)
			}
			if gotErr == nil && gotP != wantP.(lineParams) {
				t.Fatalf("seed %d %s: params %+v, oracle %+v", seed, name, gotP, wantP)
			}
			if len(gotIn) != len(wantIn) {
				t.Fatalf("seed %d %s: %d inliers, oracle %d", seed, name, len(gotIn), len(wantIn))
			}
			for i := range gotIn {
				if gotIn[i] != wantIn[i] {
					t.Fatalf("seed %d %s: inlier %d is %d, oracle %d", seed, name, i, gotIn[i], wantIn[i])
				}
			}
			if rngA.Int63() != wantNext {
				t.Fatalf("seed %d %s: rng diverged after the run", seed, name)
			}
		}
	}
}

// staticModel fits nothing, so every allocation AllocsPerRun sees is
// RANSAC's own.
type staticModel struct{ vals []float64 }

func (s staticModel) Len() int                       { return len(s.vals) }
func (s staticModel) Fit(idx []int) (float64, error) { return s.vals[idx[0]], nil }
func (s staticModel) Residual(i int, p float64) float64 {
	return math.Abs(s.vals[i] - p)
}

// TestRANSACAllocBound pins the driver's own allocations, on the sparse-draw
// path the agent runs (hundreds of vectors, a handful per sample) and on the
// dense one (a permutation per hypothesis): with a warm scratch, none.
func TestRANSACAllocBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{400, 10} {
		model := staticModel{vals: make([]float64, n)}
		for i := range model.vals {
			model.vals[i] = rng.Float64()
		}
		cfg := RANSACConfig{MinSamples: 3, Iterations: 64, InlierThreshold: 0.2}
		var s RANSACScratch
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := RANSAC(model, cfg, rng, &s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("RANSAC over %d points: %.0f allocs per run with a warm scratch, want 0", n, allocs)
		}
	}
}
