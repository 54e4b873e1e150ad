package codec

import (
	"math"

	"dive/internal/imgx"
)

// MBSize is the macroblock edge in pixels.
const MBSize = 16

// MV is a full-pel motion vector: the displacement from a macroblock in the
// current frame to its best match in the reference frame.
type MV struct {
	X, Y int16
}

// IsZero reports whether the vector is (0, 0).
func (v MV) IsZero() bool { return v.X == 0 && v.Y == 0 }

// MEMethod selects the motion-estimation search strategy, mirroring x264's
// --me options; Figure 9 sweeps these.
type MEMethod int

// Motion estimation methods, in ascending computational complexity.
const (
	MEDia  MEMethod = iota + 1 // diamond search
	MEHex                      // hexagon search
	MEUmh                      // uneven multi-hexagon search
	METesa                     // transformed exhaustive (SATD refinement)
	MEEsa                      // exhaustive search
)

// String returns the x264-style lowercase name.
func (m MEMethod) String() string {
	switch m {
	case MEDia:
		return "dia"
	case MEHex:
		return "hex"
	case MEUmh:
		return "umh"
	case METesa:
		return "tesa"
	case MEEsa:
		return "esa"
	default:
		return "unknown"
	}
}

// ParseMEMethod converts an x264-style name into an MEMethod.
func ParseMEMethod(s string) (MEMethod, bool) {
	switch s {
	case "dia":
		return MEDia, true
	case "hex":
		return MEHex, true
	case "umh":
		return MEUmh, true
	case "tesa":
		return METesa, true
	case "esa":
		return MEEsa, true
	}
	return 0, false
}

// AllMEMethods lists every search strategy for sweeps.
func AllMEMethods() []MEMethod {
	return []MEMethod{MEDia, MEHex, MEUmh, METesa, MEEsa}
}

// searcher bundles the state one motion search needs.
type searcher struct {
	cur, ref *imgx.Plane
	mbx, mby int // top-left pixel of the macroblock
	rangePx  int
	bestMV   MV
	bestCost int
	// bestSAD is the distortion part of bestCost: the incumbent's full SAD.
	bestSAD   int
	lambdaMV  int // bit-cost weight for MV magnitude (rate term)
	predictor MV
	// priced has one bit per window offset try has already evaluated, row
	// (dy − predictor.Y + pricedRadius) and column likewise; windows wider
	// than pricedRadius are not tracked and re-price.
	priced [2*pricedRadius + 1]uint64
}

// pricedRadius is the largest search range whose window fits one uint64 a row.
const pricedRadius = 31

// try prices candidate (dx, dy) — SAD plus a small rate term that penalizes
// deviation from the predictor, the standard regularization that keeps MV
// fields smooth in production encoders — and makes it the incumbent if it is
// strictly cheaper. The search window is centered on the predictor (as in
// x264), so coherent large motion can be tracked through predictor chaining
// even beyond the window radius.
//
// A candidate wins only with SAD < bestCost − rate, so that is the SAD's
// early-exit bound and a candidate whose rate alone reaches bestCost is not
// measured at all. One priced before is not measured again: it lost to, or
// was, an incumbent no dearer than today's, bestCost only falls, and the
// rate weight only rises between the two starting candidates and the walk.
func (s *searcher) try(dx, dy int) {
	ox, oy := dx-int(s.predictor.X), dy-int(s.predictor.Y)
	if absInt(ox) > s.rangePx || absInt(oy) > s.rangePx {
		return
	}
	if s.rangePx <= pricedRadius {
		row, bit := &s.priced[oy+pricedRadius], uint64(1)<<uint(ox+pricedRadius)
		if *row&bit != 0 {
			return
		}
		*row |= bit
	}
	rate := s.lambdaMV * (absInt(ox) + absInt(oy))
	bound := s.bestCost - rate
	if bound <= 0 {
		return
	}
	sad := imgx.SAD(s.cur, s.mbx, s.mby, s.ref, s.mbx+dx, s.mby+dy, MBSize, MBSize, bound)
	if sad < bound {
		s.bestCost, s.bestSAD = sad+rate, sad
		s.bestMV = MV{int16(dx), int16(dy)}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// smallDiamond is the ±1 cross used by DIA and as final refinement.
var smallDiamond = [4][2]int{{0, -1}, {0, 1}, {-1, 0}, {1, 0}}

// hexPattern is the 6-point hexagon of radius 2.
var hexPattern = [6][2]int{{-2, 0}, {-1, -2}, {1, -2}, {2, 0}, {1, 2}, {-1, 2}}

// searchDia runs an iterative small-diamond descent from the predictor.
func (s *searcher) searchDia() {
	cx, cy := int(s.bestMV.X), int(s.bestMV.Y)
	for iter := 0; iter < 2*s.rangePx; iter++ {
		improved := false
		for _, d := range smallDiamond {
			before := s.bestCost
			s.try(cx+d[0], cy+d[1])
			if s.bestCost < before {
				improved = true
			}
		}
		nx, ny := int(s.bestMV.X), int(s.bestMV.Y)
		if !improved || (nx == cx && ny == cy) {
			return
		}
		cx, cy = nx, ny
	}
}

// searchHex runs hexagon descent followed by small-diamond refinement.
func (s *searcher) searchHex() {
	cx, cy := int(s.bestMV.X), int(s.bestMV.Y)
	for iter := 0; iter < s.rangePx; iter++ {
		for _, d := range hexPattern {
			s.try(cx+d[0], cy+d[1])
		}
		nx, ny := int(s.bestMV.X), int(s.bestMV.Y)
		if nx == cx && ny == cy {
			break
		}
		cx, cy = nx, ny
	}
	cx, cy = int(s.bestMV.X), int(s.bestMV.Y)
	for _, d := range smallDiamond {
		s.try(cx+d[0], cy+d[1])
	}
}

// searchUmh runs a simplified uneven multi-hexagon search: an uneven cross,
// expanding multi-hexagon rings, then hexagon refinement.
func (s *searcher) searchUmh() {
	cx, cy := int(s.bestMV.X), int(s.bestMV.Y)
	// Uneven cross: horizontal reach is twice the vertical (motion in
	// driving video is predominantly horizontal).
	for d := 1; d <= s.rangePx; d += 2 {
		s.try(cx+d, cy)
		s.try(cx-d, cy)
		if d <= s.rangePx/2 {
			s.try(cx, cy+d)
			s.try(cx, cy-d)
		}
	}
	// Multi-hexagon rings around the incumbent.
	cx, cy = int(s.bestMV.X), int(s.bestMV.Y)
	for r := 1; r <= s.rangePx/2; r *= 2 {
		for _, d := range hexPattern {
			s.try(cx+d[0]*r, cy+d[1]*r)
		}
	}
	s.searchHex()
}

// searchEsa scans every offset in the predictor-centered window; the
// window-global SAD-optimal match.
func (s *searcher) searchEsa() {
	px, py := int(s.predictor.X), int(s.predictor.Y)
	for dy := py - s.rangePx; dy <= py+s.rangePx; dy++ {
		for dx := px - s.rangePx; dx <= px+s.rangePx; dx++ {
			s.try(dx, dy)
		}
	}
}

// searchTesa scans exhaustively with SAD, keeps the best candidates, and
// re-ranks them with a Hadamard-transformed (SATD) cost, as x264's tesa
// does. It is the most expensive method.
func (s *searcher) searchTesa() {
	type cand struct {
		dx, dy, sad int
	}
	const keep = 12
	cands := make([]cand, 0, keep+1)
	worst := math.MaxInt32
	px, py := int(s.predictor.X), int(s.predictor.Y)
	for dy := py - s.rangePx; dy <= py+s.rangePx; dy++ {
		for dx := px - s.rangePx; dx <= px+s.rangePx; dx++ {
			sad := imgx.SAD(s.cur, s.mbx, s.mby, s.ref, s.mbx+dx, s.mby+dy, MBSize, MBSize, worst)
			if len(cands) < keep || sad < worst {
				cands = append(cands, cand{dx, dy, sad})
				// Keep the candidate list small and worst up to date.
				if len(cands) > keep {
					wi, wv := 0, -1
					for i, c := range cands {
						if c.sad > wv {
							wi, wv = i, c.sad
						}
					}
					cands[wi] = cands[len(cands)-1]
					cands = cands[:len(cands)-1]
				}
				worst = 0
				for _, c := range cands {
					if c.sad > worst {
						worst = c.sad
					}
				}
			}
		}
	}
	bestCost := math.MaxInt32
	for _, c := range cands {
		satd := s.satd(c.dx, c.dy)
		cost := satd + s.lambdaMV*(absInt(c.dx-int(s.predictor.X))+absInt(c.dy-int(s.predictor.Y)))
		if cost < bestCost {
			bestCost = cost
			s.bestMV = MV{int16(c.dx), int16(c.dy)}
		}
	}
	s.bestCost = bestCost
	s.bestSAD = imgx.SAD(s.cur, s.mbx, s.mby, s.ref, s.mbx+int(s.bestMV.X), s.mby+int(s.bestMV.Y), MBSize, MBSize, math.MaxInt32)
}

// satd computes the sum of absolute Hadamard-transformed differences over
// the macroblock's four 8×8 blocks at offset (dx, dy).
func (s *searcher) satd(dx, dy int) int {
	total := 0
	var diff [blockSize * blockSize]int32
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					cx, cy := s.mbx+bx+x, s.mby+by+y
					diff[y*blockSize+x] = int32(s.cur.At(cx, cy)) - int32(s.ref.At(cx+dx, cy+dy))
				}
			}
			total += hadamardSAT(&diff)
		}
	}
	return total
}

// hadamardSAT applies the 8×8 Hadamard transform and sums magnitudes.
func hadamardSAT(d *[blockSize * blockSize]int32) int {
	// Rows then columns of the recursive butterfly.
	for y := 0; y < blockSize; y++ {
		hadamard8(d[y*blockSize : y*blockSize+blockSize])
	}
	var col [blockSize]int32
	sum := 0
	for x := 0; x < blockSize; x++ {
		for y := 0; y < blockSize; y++ {
			col[y] = d[y*blockSize+x]
		}
		hadamard8(col[:])
		for _, v := range col {
			if v < 0 {
				v = -v
			}
			sum += int(v)
		}
	}
	return sum / 8
}

// hadamard8 performs an in-place 8-point Hadamard transform.
func hadamard8(v []int32) {
	for step := 1; step < 8; step *= 2 {
		for i := 0; i < 8; i += 2 * step {
			for j := i; j < i+step; j++ {
				a, b := v[j], v[j+step]
				v[j], v[j+step] = a+b, a-b
			}
		}
	}
}

// searchInteger finds the motion vector for the macroblock whose top-left
// pixel is (mbx, mby), starting from predictor pred, and returns it with its
// cost and the winner's plain SAD — its cost less the rate term (or, for
// TESA, in place of the SATD).
func searchInteger(cur, ref *imgx.Plane, mbx, mby int, pred MV, method MEMethod, rangePx int) (mv MV, cost, sad int) {
	s := &searcher{
		cur: cur, ref: ref, mbx: mbx, mby: mby,
		rangePx: rangePx, bestCost: math.MaxInt32,
		lambdaMV: 4, predictor: pred,
	}
	switch method {
	case MEEsa, METesa:
		// Exhaustive variants are purely residual-driven: they visit the
		// whole window, so the predictor only positions the window and
		// contributes no rate bias. This is what makes them best for
		// compression yet noisier for analytics — the window-global
		// residual minimum need not be the true object motion.
		s.lambdaMV = 0
		s.try(0, 0)
		if method == MEEsa {
			s.searchEsa()
		} else {
			s.searchTesa()
		}
	default:
		// Start from the zero vector and the predictor.
		s.try(0, 0)
		s.try(int(pred.X), int(pred.Y))
		// Noise-adaptive rate penalty: when even the best starting
		// candidate has high SAD (noisy or flat content), random offsets
		// can beat it by chance alone, so demand proportionally more
		// improvement per pixel of displacement. This is what keeps
		// x264's vectors at zero on low-light footage — the effect the
		// paper leans on when excluding night clips.
		if adaptive := s.bestCost >> 5; adaptive > s.lambdaMV {
			s.lambdaMV = adaptive
		}
		switch method {
		case MEDia:
			s.searchDia()
		case MEUmh:
			s.searchUmh()
		default:
			s.searchHex()
		}
	}
	return s.bestMV, s.bestCost, s.bestSAD
}
