package geom

import (
	"errors"
	"math/rand"
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
// parameters from the points with the given indices; Residual evaluates one
// point against those parameters.
type RANSACModel interface {
	// Len returns the number of data points.
	Len() int
	// Fit estimates parameters from the selected points. It may fail for
	// degenerate selections.
	Fit(indices []int) (params interface{}, err error)
	// Residual returns the absolute residual of point i under params.
	Residual(i int, params interface{}) float64
}

// ErrNoConsensus is returned when RANSAC finds no acceptable model.
var ErrNoConsensus = errors.New("geom: ransac found no consensus")

// RANSAC runs the classic Fischler–Bolles loop (used by the paper to solve
// the over-determined rotation system in the presence of noisy motion
// vectors): repeatedly fit a model to a random minimal sample, score it by
// consensus-set size, and finally refit to the best consensus set.
//
// It returns the refitted parameters and the inlier indices.
func RANSAC(m RANSACModel, cfg RANSACConfig, rng *rand.Rand) (interface{}, []int, error) {
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
		drawSample(sample, n, rng)
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
		return nil, nil, ErrNoConsensus
	}
	params, err := m.Fit(bestInliers)
	if err != nil {
		return nil, nil, err
	}
	return params, bestInliers, nil
}

// drawSample fills dst with distinct indices in [0, n).
func drawSample(dst []int, n int, rng *rand.Rand) {
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
