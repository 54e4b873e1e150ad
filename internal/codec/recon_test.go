package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dive/internal/imgx"
)

// Randomized equality tests holding the shared reconstruction kernels to the
// per-pixel oracles in oracle_test.go.

// blockyPlane builds content whose 8×8 block boundaries carry small steps
// over a gentle texture, so the deblocking filter's every branch fires.
func blockyPlane(rng *rand.Rand, w, h int) *imgx.Plane {
	p := imgx.NewPlane(w, h)
	step := make([]int, (w/8)*(h/8))
	for i := range step {
		step[i] = rng.Intn(48) - 24
	}
	base := 40 + rng.Intn(160)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := base + step[(y/8)*(w/8)+x/8] + rng.Intn(7) - 3
			p.Pix[y*w+x] = clampPixI(int32(v))
		}
	}
	return p
}

func TestDeblockMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		w, h := MBSize*(1+rng.Intn(5)), MBSize*(1+rng.Intn(4))
		got := blockyPlane(rng, w, h)
		if trial%5 == 0 {
			got = randPlane(rng, w, h) // mostly real edges: the early-outs
		}
		want := got.Clone()
		qps := make([]int, (w/MBSize)*(h/MBSize))
		flat := rng.Intn(52)
		for i := range qps {
			qps[i] = flat
			if trial%2 == 0 {
				qps[i] = rng.Intn(52) // neighbours average across MB edges
			}
		}
		deblockFrame(got, qps, w/MBSize)
		oracleDeblockFrame(want, qps, w/MBSize)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("trial %d (%dx%d): deblockFrame differs from the per-pixel oracle", trial, w, h)
		}
	}
}

// randMV draws a vector of one of three kinds around macroblock (px, py):
// inside the frame, straddling a border, or far outside it.
func randMV(rng *rand.Rand, ref *imgx.Plane, px, py, scale int) MV {
	switch rng.Intn(3) {
	case 0:
		return MV{int16(rng.Intn(9) - 4), int16(rng.Intn(9) - 4)}
	case 1:
		// Land the block's origin within a macroblock of some border.
		tx := []int{-rng.Intn(MBSize + 1), ref.W - MBSize + rng.Intn(MBSize+1)}[rng.Intn(2)]
		ty := []int{-rng.Intn(MBSize + 1), ref.H - MBSize + rng.Intn(MBSize+1)}[rng.Intn(2)]
		return MV{int16((tx-px)*scale + rng.Intn(scale)), int16((ty-py)*scale + rng.Intn(scale))}
	default:
		return MV{int16(rng.Intn(1<<16) - 1<<15), int16(rng.Intn(1<<16) - 1<<15)}
	}
}

// predictPlanes predicts every macroblock of ref displaced by mv twice —
// with predictBlock into got, with the scalar oraclePredictBlock into want —
// and reports whether the two planes are equal.
func predictPlanes(ref, got, want *imgx.Plane, mv MV, subpel bool) bool {
	for py := 0; py < ref.H; py += MBSize {
		for px := 0; px < ref.W; px += MBSize {
			predictBlock(got.Pix[py*got.W+px:], got.W, ref, px, py, mv, subpel)
			oraclePredictBlock(want.Pix[py*want.W+px:], want.W, ref, px, py, MBSize, MBSize, mv, subpel)
		}
	}
	return bytes.Equal(got.Pix, want.Pix)
}

// TestPredictBlockMatchesOracle holds the word-wide predictor to the scalar
// one it replaced at every macroblock of three frame sizes (the benchmark's,
// VGA-shaped, the KITTI clip's), under both SubPel settings, for every
// vector within ±2·(searchRange+8) — every phase, at every distance past
// each border a searched or predicted vector can reach — and for every pair
// of the int16 extremes a hostile stream can send. Under -race it sweeps
// the first size only.
func TestPredictBlockMatchesOracle(t *testing.T) {
	const r = 2 * (searchRange + 8)
	extremes := []int16{math.MinInt16, math.MinInt16 + 1, -1, 0, 1, math.MaxInt16 - 1, math.MaxInt16}
	sizes := [][2]int{{320, 192}, {320, 240}, {400, 128}}
	if raceEnabled {
		sizes = sizes[:1]
	}
	for i, size := range sizes {
		t.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(t *testing.T) {
			t.Parallel()
			ref := randPlane(rand.New(rand.NewSource(int64(62+i))), size[0], size[1])
			got, want := imgx.NewPlane(ref.W, ref.H), imgx.NewPlane(ref.W, ref.H)
			check := func(mv MV, subpel bool) {
				if !predictPlanes(ref, got, want, mv, subpel) {
					t.Fatalf("mv %v subpel=%v: predictBlock differs from the scalar oracle", mv, subpel)
				}
			}
			for _, subpel := range []bool{false, true} {
				for my := -r; my <= r; my++ {
					for mx := -r; mx <= r; mx++ {
						check(MV{int16(mx), int16(my)}, subpel)
					}
				}
				for _, my := range extremes {
					for _, mx := range extremes {
						check(MV{mx, my}, subpel)
					}
				}
			}
		})
	}
}

// FuzzPredictBlock predicts one macroblock of a small random reference at
// any position and vector, and holds predictBlock to the scalar oracle.
func FuzzPredictBlock(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), int16(0), int16(0), false)
	f.Add(int64(2), uint8(4), uint8(2), int16(-3), int16(5), true)
	f.Add(int64(3), uint8(0), uint8(3), int16(math.MinInt16), int16(math.MaxInt16), true)
	f.Fuzz(func(t *testing.T, seed int64, bx, by uint8, mx, my int16, subpel bool) {
		ref := randPlane(rand.New(rand.NewSource(seed)), 5*MBSize, 4*MBSize)
		px, py := int(bx)%5*MBSize, int(by)%4*MBSize
		mv := MV{mx, my}
		var got, want [MBSize * MBSize]uint8
		predictBlock(got[:], MBSize, ref, px, py, mv, subpel)
		oraclePredictBlock(want[:], MBSize, ref, px, py, MBSize, MBSize, mv, subpel)
		if got != want {
			t.Fatalf("MB (%d,%d) mv %v subpel=%v: predictBlock differs from the scalar oracle", px, py, mv, subpel)
		}
	})
}

// randLevels fills one block with n nonzero levels (n = 64: dense) and
// returns its zigzag significance mask.
func randLevels(rng *rand.Rand, levels *[blockSize * blockSize]int32, n, amp int) uint64 {
	*levels = [blockSize * blockSize]int32{}
	for k := 0; k < n; k++ {
		pos := rng.Intn(64)
		if n < 8 && rng.Intn(2) == 0 {
			pos = zigzag8[rng.Intn(10)] // low frequencies, as quantized blocks are
		}
		levels[pos] = int32(rng.Int63n(2*int64(amp)+1) - int64(amp)) // 2·2^30+1 overflows a 32-bit int
	}
	return levelsMask(levels)
}

// TestIdctMatchesOracle holds the column-skipping IDCT to the full one, and
// both bodies of idctAdd to the full one's reconstruction with the same
// values taken as levels, at a random QP over a random prediction, strided.
func TestIdctMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pred := make([]uint8, 7*13+blockSize)
	for trial := 0; trial < 5000; trial++ {
		var coef, got, want [blockSize * blockSize]int32
		n := []int{0, 1, 2, 5, 20, 64}[rng.Intn(6)]
		amp := []int{3, 300, 40000, 1 << 30}[rng.Intn(4)] // up to hostile magnitudes
		randLevels(rng, &coef, n, amp)
		idct8Fixed(&coef, &got)
		oracleIdct8(&coef, &want)
		if got != want {
			t.Fatalf("trial %d (%d coefficients, amplitude %d): sparse IDCT differs from the full one", trial, n, amp)
		}
		rng.Read(pred)
		checkIdctAdd(t, "random", &coef, rng.Intn(52), pred, 13)
	}
}

// TestReconstructInterMBMatchesOracle replays the reconstruction loop the
// encoder and the decoder each used to carry (dequantize, full IDCT,
// per-pixel clamped sample + residual, clamped store) against the shared
// kernel, over QP 0–51, empty to dense blocks and all three vector kinds.
func TestReconstructInterMBMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ref := randPlane(rng, 64, 48)
	for trial := 0; trial < 2000; trial++ {
		subpel := trial%2 == 0
		scale := 1
		if subpel {
			scale = 2
		}
		qp := trial % 52
		px, py := MBSize*rng.Intn(ref.W/MBSize), MBSize*rng.Intn(ref.H/MBSize)
		mv := randMV(rng, ref, px, py, scale)
		var levels [4 * blockSize * blockSize]int32
		var masks [4]uint64
		for blk := range masks {
			n := []int{0, 0, 1, 3, 12, 64}[rng.Intn(6)]
			masks[blk] = randLevels(rng, (*[blockSize * blockSize]int32)(levels[blk*64:]), n, 1+rng.Intn(60))
		}
		got, want := imgx.NewPlane(ref.W, ref.H), imgx.NewPlane(ref.W, ref.H)
		reconstructInterMB(got, ref, px, py, mv, subpel, levels[:], masks[:], qp)
		var dct, res [blockSize * blockSize]int32
		for blk := 0; blk < 4; blk++ {
			bx, by := blk%2*blockSize, blk/2*blockSize
			dequantizeBlockFixed((*[blockSize * blockSize]int32)(levels[blk*64:]), qp, &dct)
			oracleIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					cx, cy := px+bx+x, py+by+y
					want.Set(cx, cy, clampPixI(refSampleI(ref, cx, cy, mv, subpel)+res[y*blockSize+x]))
				}
			}
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("trial %d: MB (%d,%d) mv %v subpel=%v qp %d masks %#x: shared kernel differs from the per-pixel loop", trial, px, py, mv, subpel, qp, masks)
		}
	}
}
