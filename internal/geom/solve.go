package geom

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("geom: singular system")

// Solve2x2 solves the 2×2 system
//
//	a11·x + a12·y = b1
//	a21·x + a22·y = b2
//
// returning ErrSingular when the determinant is (numerically) zero.
func Solve2x2(a11, a12, a21, a22, b1, b2 float64) (x, y float64, err error) {
	det := a11*a22 - a12*a21
	scale := math.Max(math.Abs(a11*a22), math.Abs(a12*a21))
	if scale == 0 || math.Abs(det) < 1e-12*math.Max(scale, 1) {
		return 0, 0, ErrSingular
	}
	x = (b1*a22 - b2*a12) / det
	y = (a11*b2 - a21*b1) / det
	return x, y, nil
}

// Normal2 accumulates the normal equations of an over-determined system
// A·u = b in two unknowns one row at a time, so a caller that can compute its
// rows on the fly need not materialise A and b. This is the solver behind the
// paper's Eq. (7): rows are (x·f, y·f) and b is x·vy − y·vx. The zero value
// is empty.
type Normal2 struct {
	s11, s12, s22, t1, t2 float64
	rows                  int
}

// Add folds in the equation a0·x + a1·y = b.
func (q *Normal2) Add(a0, a1, b float64) {
	q.s11 += a0 * a0
	q.s12 += a0 * a1
	q.s22 += a1 * a1
	q.t1 += a0 * b
	q.t2 += a1 * b
	q.rows++
}

// Solve returns the least-squares solution of the rows added so far.
func (q *Normal2) Solve() (x, y float64, err error) {
	if q.rows < 2 {
		return 0, 0, errors.New("geom: need at least two equations")
	}
	return Solve2x2(q.s11, q.s12, q.s12, q.s22, q.t1, q.t2)
}

// LeastSquares2 solves the over-determined system A·u = b for a 2-vector u
// in the least-squares sense via the normal equations (Normal2, row by row).
// Each row of a must have exactly two entries.
func LeastSquares2(a [][2]float64, b []float64) (u [2]float64, err error) {
	if len(a) != len(b) {
		return u, errors.New("geom: dimension mismatch")
	}
	var q Normal2
	for i, row := range a {
		q.Add(row[0], row[1], b[i])
	}
	x, y, err := q.Solve()
	if err != nil {
		return u, err
	}
	return [2]float64{x, y}, nil
}

// Normal3 is Normal2 for three unknowns: LeastSquares' accumulation and
// elimination in the same operation order, on fixed-size arrays.
type Normal3 struct {
	m    [3][4]float64
	rows int
}

// Add folds in the equation row·u = b.
func (q *Normal3) Add(row [3]float64, b float64) {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			q.m[i][j] += row[i] * row[j]
		}
		q.m[i][3] += row[i] * b
	}
	q.rows++
}

// Solve returns the least-squares solution of the rows added so far. It
// eliminates in place, so the accumulator is spent afterwards.
func (q *Normal3) Solve() (u [3]float64, err error) {
	if q.rows < 3 {
		return u, errors.New("geom: underdetermined system")
	}
	m := [3][]float64{q.m[0][:], q.m[1][:], q.m[2][:]}
	err = gaussSolve(m[:], u[:])
	return u, err
}

// LeastSquares solves the over-determined system A·u = b for an n-vector u
// via normal equations and Gaussian elimination with partial pivoting.
// It is the general form, used for model fitting in tests; the agent's
// three-unknown fit runs on Normal3.
func LeastSquares(a [][]float64, b []float64) ([]float64, error) {
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
	u := make([]float64, n)
	if err := gaussSolve(m, u); err != nil {
		return nil, err
	}
	return u, nil
}

// gaussSolve solves the augmented system m (n rows of n+1 columns) in place
// and writes the solution into u.
func gaussSolve(m [][]float64, u []float64) error {
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
			return ErrSingular
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
	for i := range u {
		u[i] = m[i][n]
	}
	return nil
}
