package geom

import (
	"errors"
	"math/rand"
	"slices"
)

// RANSACConfig controls the generic RANSAC driver.
type RANSACConfig struct {
	// MinSamples is the number of data points drawn per hypothesis.
	MinSamples int
	// Iterations is the number of hypotheses to evaluate.
	Iterations int
	// InlierThreshold is the maximum residual for a point to count as an
	// inlier of a hypothesis.
	InlierThreshold float64
	// MinInliers, when > 0, rejects consensus sets smaller than this.
	MinInliers int
}

// RANSACModel abstracts the model being fitted. Fit estimates model
// parameters from the points with the given indices; Inliers scores one
// hypothesis against every point in one loop. The parameters are a value type
// P, so a hypothesis is never boxed; instantiate with a struct-typed model
// (not a pointer) and the driver calls Fit and Inliers directly, once per
// hypothesis.
type RANSACModel[P any] interface {
	// Len returns the number of data points.
	Len() int
	// Fit estimates parameters from the selected points. It may fail for
	// degenerate selections.
	Fit(indices []int) (params P, err error)
	// Inliers appends to dst, in index order, every point whose absolute
	// residual under params is ≤ thr, and returns the extended slice. A
	// model states its residual as an ordinary Residual method, and Inliers
	// decides every point exactly as Residual(i, params) <= thr does.
	Inliers(params P, thr float64, dst []int) []int
}

// RANSACScratch is the driver's index storage — the sample, the two inlier
// buffers and the dense draw's permutation — kept between runs by a caller
// that fits every frame. The zero value is ready to use.
type RANSACScratch struct {
	sample, best, cur, perm []int
}

// ErrNoConsensus is returned when RANSAC finds no acceptable model.
var ErrNoConsensus = errors.New("geom: ransac found no consensus")

// RANSAC runs the classic Fischler–Bolles loop (used by the paper to solve
// the over-determined rotation system in the presence of noisy motion
// vectors): repeatedly fit a model to a random minimal sample, score it by
// consensus-set size, and finally refit to the best consensus set.
//
// It returns the refitted parameters and the inlier indices. With a non-nil
// scratch it allocates nothing once the scratch has grown to the data, and
// the inliers are valid until the scratch's next run; nil uses a fresh one.
func RANSAC[P any, M RANSACModel[P]](m M, cfg RANSACConfig, rng *rand.Rand, s *RANSACScratch) (P, []int, error) {
	var none P
	n := m.Len()
	if n < cfg.MinSamples {
		return none, nil, errors.New("geom: not enough points for ransac")
	}
	if s == nil {
		s = &RANSACScratch{}
	}
	// Two inlier buffers serve every hypothesis: one holds the best
	// consensus set so far, the other collects the current hypothesis's, and
	// they swap when the current one wins.
	bestInliers, inliers := slices.Grow(s.best[:0], n), slices.Grow(s.cur[:0], n)
	sample := slices.Grow(s.sample[:0], cfg.MinSamples)[:cfg.MinSamples]
	for it := 0; it < cfg.Iterations; it++ {
		s.perm = drawSample(sample, n, rng, s.perm)
		params, err := m.Fit(sample)
		if err != nil {
			continue
		}
		inliers = m.Inliers(params, cfg.InlierThreshold, inliers[:0])
		if len(inliers) > len(bestInliers) {
			bestInliers, inliers = inliers, bestInliers
		}
	}
	s.sample, s.best, s.cur = sample, bestInliers, inliers
	best := len(bestInliers)
	if best == 0 || best < cfg.MinSamples || (cfg.MinInliers > 0 && best < cfg.MinInliers) {
		return none, nil, ErrNoConsensus
	}
	params, err := m.Fit(bestInliers)
	if err != nil {
		return none, nil, err
	}
	return params, bestInliers, nil
}

// PermInto is rng.Perm(n) written into dst's storage: the same draws in the
// same order, so the same permutation, without a new slice per call.
func PermInto(dst []int, n int, rng *rand.Rand) []int {
	m := slices.Grow(dst[:0], n)[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// drawSample fills dst with distinct indices in [0, n). perm is the dense
// path's working storage, returned (possibly grown) for the next draw.
func drawSample(dst []int, n int, rng *rand.Rand, perm []int) []int {
	k := len(dst)
	if k*4 >= n {
		// Dense draw: partial Fisher–Yates over an index array.
		perm = PermInto(perm, n, rng)
		copy(dst, perm[:k])
		return perm
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
	return perm
}
