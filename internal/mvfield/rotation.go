package mvfield

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"

	"dive/internal/geom"
)

// Sampling selects how the rotation estimator picks the motion vectors it
// feeds into the over-determined system; Figure 7 compares the two.
type Sampling int

// Sampling strategies.
const (
	// RSampling picks the k vectors closest to the calibrated FOE. Those
	// vectors have the smallest translational components (flow magnitude
	// shrinks toward the FOE) so rotation dominates them — the paper's key
	// trick for accurate estimates from few samples.
	RSampling Sampling = iota + 1
	// RandomSampling picks k vectors uniformly at random, the baseline.
	RandomSampling
)

// String names the strategy.
func (s Sampling) String() string {
	switch s {
	case RSampling:
		return "r-sampling"
	case RandomSampling:
		return "random"
	default:
		return "unknown"
	}
}

// ErrNoRotation is returned when rotation cannot be estimated.
var ErrNoRotation = errors.New("mvfield: not enough vectors to estimate rotation")

// RotationEstimator solves the paper's Eq. (7) for the per-frame pitch and
// yaw increments (Δφx, Δφy) with RANSAC over a selected vector subset.
type RotationEstimator struct {
	// K is the number of sampled vectors (the paper settles on 70).
	K int
	// Strategy selects R-sampling or random sampling.
	Strategy Sampling
	// Iterations is the RANSAC hypothesis count.
	Iterations int
	// InlierThreshold is the residual bound in pixel·focal units scaled
	// back to pixels (see rotModel.Residual).
	InlierThreshold float64
}

// NewRotationEstimator returns the paper's operating point: R-sampling with
// k = 70.
func NewRotationEstimator() *RotationEstimator {
	return &RotationEstimator{
		K:               70,
		Strategy:        RSampling,
		Iterations:      48,
		InlierThreshold: 1.0,
	}
}

// rotModel fits Eq. (7): x·f·Δφx + y·f·Δφy = x·vy − y·vx. The translational
// component cancels from the right-hand side exactly when the agent
// translates only along its z axis.
type rotModel struct {
	pts []rotPoint
}

// rotPoint is what Eq. (7) needs of one vector, none of it depending on the
// hypothesis: the row (x·f, y·f), the right-hand side, and the lever arm
// that scales the residual back to flow pixels.
type rotPoint struct{ ax, ay, rhs, lever float64 }

func newRotPoint(v Vector, focal float64) rotPoint {
	lever := v.Pos.Norm()
	if lever < 1 {
		lever = 1
	}
	return rotPoint{v.Pos.X * focal, v.Pos.Y * focal, v.Pos.X*v.Flow.Y - v.Pos.Y*v.Flow.X, lever}
}

type rotParams struct{ phiX, phiY float64 }

func (m rotModel) Len() int { return len(m.pts) }

func (m rotModel) Fit(idx []int) (rotParams, error) {
	var q geom.Normal2
	for _, i := range idx {
		p := m.pts[i]
		q.Add(p.ax, p.ay, p.rhs)
	}
	x, y, err := q.Solve()
	return rotParams{phiX: x, phiY: y}, err
}

func (m rotModel) Residual(i int, p rotParams) float64 {
	pt := m.pts[i]
	return absf(pt.ax*p.phiX+pt.ay*p.phiY-pt.rhs) / pt.lever
}

// Inliers appends every i with Residual(i, p) <= thr: the same expression,
// in one loop over the points.
func (m rotModel) Inliers(p rotParams, thr float64, dst []int) []int {
	k := len(dst)
	dst = slices.Grow(dst, len(m.pts))[:k+len(m.pts)]
	for i := range m.pts {
		dst[k] = i
		k += b2i(m.Residual(i, p) <= thr)
	}
	return dst[:k]
}

// distKey is one candidate vector's R-sampling sort key: its distance to the
// calibrated FOE, computed once instead of inside every comparison.
type distKey struct {
	dist float64
	i    int // index into Field.Vectors
}

// Estimate returns the per-frame rotation increments (radians). foe is the
// calibrated FOE used by R-sampling; it is ignored under RandomSampling.
func (e *RotationEstimator) Estimate(f *Field, foe geom.Vec2, rng *rand.Rand) (phiX, phiY float64, err error) {
	return e.EstimateWith(nil, f, foe, rng)
}

// EstimateWith is Estimate working in s (nil: a fresh scratch).
func (e *RotationEstimator) EstimateWith(s *Scratch, f *Field, foe geom.Vec2, rng *rand.Rand) (phiX, phiY float64, err error) {
	if s == nil {
		s = &Scratch{}
	}
	candidates := s.keys[:0]
	for i, v := range f.Vectors {
		if v.Valid && !v.Zero {
			candidates = append(candidates, distKey{i: i})
		}
	}
	s.keys = candidates
	if len(candidates) < 4 {
		return 0, 0, ErrNoRotation
	}
	k := e.K
	if k > len(candidates) {
		k = len(candidates)
	}
	pts := s.pts[:0]
	switch e.Strategy {
	case RandomSampling:
		s.idx = geom.PermInto(s.idx, len(candidates), rng)
		for _, j := range s.idx[:k] {
			pts = append(pts, newRotPoint(f.Vectors[candidates[j].i], f.Focal))
		}
	default: // RSampling
		for j := range candidates {
			candidates[j].dist = f.Vectors[candidates[j].i].Pos.Dist(foe)
		}
		// Equidistant candidates (mirror images about an uncalibrated FOE)
		// land in the order pdqsort leaves them; the chosen prefix, and so
		// every rng draw after it, depends on that order.
		slices.SortFunc(candidates, func(a, b distKey) int { return cmp.Compare(a.dist, b.dist) })
		for _, c := range candidates[:k] {
			pts = append(pts, newRotPoint(f.Vectors[c.i], f.Focal))
		}
	}
	s.pts = pts
	m := rotModel{pts}
	p, _, rerr := geom.RANSAC(m, geom.RANSACConfig{
		MinSamples:      2,
		Iterations:      e.Iterations,
		InlierThreshold: e.InlierThreshold,
		MinInliers:      k / 4,
	}, rng, &s.ransac)
	if rerr != nil {
		// Fall back to a plain least-squares fit over all chosen vectors;
		// better a rough estimate than none.
		s.idx = s.idx[:0]
		for i := range pts {
			s.idx = append(s.idx, i)
		}
		if p, rerr = m.Fit(s.idx); rerr != nil {
			return 0, 0, ErrNoRotation
		}
	}
	return p.phiX, p.phiY, nil
}
