package codec

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// randResidualBlock fills a block with worst-case-range inter residuals
// (difference of two uint8 planes: ±255).
func randResidualBlock(rng *rand.Rand, blk *[blockSize * blockSize]int32) {
	for i := range blk {
		blk[i] = int32(rng.Intn(511) - 255)
	}
}

// TestFixedDCTMatchesReference bounds the divergence between the fixed-point
// factorized forward transform and the float64 matrix reference over
// randomized full-range residual blocks. The factorization is algebraically
// exact, so the only differences are constant quantization (2^-13 relative)
// and the two rounding shifts; the bound below is the documented worst case
// from the DESIGN.md §12 error budget.
func TestFixedDCTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	maxDiff := 0.0
	for trial := 0; trial < 500; trial++ {
		var src [blockSize * blockSize]int32
		var dst [blockSize * blockSize]int32
		var fsrc, fdst [blockSize * blockSize]float64
		randResidualBlock(rng, &src)
		for i, v := range src {
			fsrc[i] = float64(v)
		}
		fdct8Fixed(&src, &dst)
		refFdct8(&fsrc, &fdst)
		for i := range dst {
			d := math.Abs(float64(dst[i])/(1<<coefBits) - fdst[i])
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1.5 {
		t.Fatalf("max coefficient divergence %.3f exceeds error budget 1.5", maxDiff)
	}
	t.Logf("max coefficient divergence fixed vs float: %.4f", maxDiff)
}

// TestFixedDCTRoundTrip pins the unquantized transform round trip: forward
// then inverse must recover full-range residuals within ±1 (the fixed-point
// rounding budget; the float reference has the same property).
func TestFixedDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		var src, coef, back [blockSize * blockSize]int32
		randResidualBlock(rng, &src)
		fdct8Fixed(&src, &coef)
		idct8Fixed(&coef, &back)
		for i := range src {
			if d := src[i] - back[i]; d < -1 || d > 1 {
				t.Fatalf("trial %d: round trip off by %d at %d (src %d, back %d)",
					trial, d, i, src[i], back[i])
			}
		}
	}
}

// shadowFdct8 mirrors fdct8Fixed's arithmetic exactly, but accumulates in
// int64 so it cannot overflow. If the int32 path ever wrapped, its output
// would differ from the shadow.
func shadowFdct8(src *[blockSize * blockSize]int32, dst *[blockSize * blockSize]int32) {
	pass := func(in, out []int64, base, step int, rnd int64, shift uint) {
		var v [8]int64
		for j := 0; j < 8; j++ {
			v[j] = in[base+j*step]
		}
		s0, s1, s2, s3 := v[0]+v[7], v[1]+v[6], v[2]+v[5], v[3]+v[4]
		d0, d1, d2, d3 := v[0]-v[7], v[1]-v[6], v[2]-v[5], v[3]-v[4]
		e0, e1 := s0+s3, s1+s2
		e2, e3 := s0-s3, s1-s2
		c1, c2, c3, c4 := int64(fixC1), int64(fixC2), int64(fixC3), int64(fixC4)
		c5, c6, c7 := int64(fixC5), int64(fixC6), int64(fixC7)
		out[base+0*step] = (c4*(e0+e1) + rnd) >> shift
		out[base+4*step] = (c4*(e0-e1) + rnd) >> shift
		out[base+2*step] = (c2*e2 + c6*e3 + rnd) >> shift
		out[base+6*step] = (c6*e2 - c2*e3 + rnd) >> shift
		out[base+1*step] = (c1*d0 + c3*d1 + c5*d2 + c7*d3 + rnd) >> shift
		out[base+3*step] = (c3*d0 - c7*d1 - c1*d2 - c5*d3 + rnd) >> shift
		out[base+5*step] = (c5*d0 - c1*d1 + c7*d2 + c3*d3 + rnd) >> shift
		out[base+7*step] = (c7*d0 - c5*d1 + c3*d2 - c1*d3 + rnd) >> shift
	}
	var a, tmp, b [blockSize * blockSize]int64
	for i, v := range src {
		a[i] = int64(v)
	}
	for y := 0; y < blockSize; y++ {
		pass(a[:], tmp[:], y*blockSize, 1, fdctRnd1, fdctShift1)
	}
	for x := 0; x < blockSize; x++ {
		pass(tmp[:], b[:], x, blockSize, fdctRnd2, fdctShift2)
	}
	for i, v := range b {
		dst[i] = int32(v)
	}
}

// TestFixedDCTDynamicRange is the satellite overflow property test: for
// worst-case ±255 residual patterns the int32 forward transform must agree
// with an int64 shadow of the identical arithmetic — any int32 wrap would
// show up as a mismatch — and so must both bodies of fdctResidual, given the
// same residual as current and prediction bytes (the SSE2 one carries it in
// int16 lanes). The transform is separable, so the per-coefficient worst
// cases are rank-1 sign patterns: all 256×256 (row mask × column mask) ±255
// blocks are swept exhaustively, plus randomized full-range blocks, and the
// resulting coefficients are quantized at every QP 0–51 to cover the
// reciprocal quantizer's range too.
func TestFixedDCTDynamicRange(t *testing.T) {
	check := func(src *[blockSize * blockSize]int32) (maxCoef int32) {
		var got [blockSize * blockSize]int32
		fdct8Fixed(src, &got)
		cur, pred := residualBytes(src)
		if want := checkFdct(t, "±255", cur[:], blockSize, pred[:], blockSize); got != want {
			t.Fatalf("int32 transform diverged from int64 shadow: overflow")
		}
		for _, c := range got {
			if c < 0 {
				c = -c
			}
			if c > maxCoef {
				maxCoef = c
			}
		}
		return maxCoef
	}
	var peak int32
	var src [blockSize * blockSize]int32
	for rowMask := 0; rowMask < 256; rowMask++ {
		for colMask := 0; colMask < 256; colMask++ {
			for y := 0; y < blockSize; y++ {
				rs := int32(1 - 2*(rowMask>>y&1))
				for x := 0; x < blockSize; x++ {
					cs := int32(1 - 2*(colMask>>x&1))
					src[y*blockSize+x] = 255 * rs * cs
				}
			}
			if m := check(&src); m > peak {
				peak = m
			}
		}
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		randResidualBlock(rng, &src)
		check(&src)
	}
	// The scaling-chain analysis bounds |fixed coef| by 2040·(1<<coefBits)
	// plus rounding; peak observed must respect it.
	limit := int32(2041 * (1 << coefBits))
	if peak > limit {
		t.Fatalf("peak |coef| %d exceeds documented bound %d", peak, limit)
	}
	t.Logf("peak |coef| over worst-case sweep: %d (bound %d)", peak, limit)

	// Quantize the absolute worst coefficient at every QP: the int64
	// product |coef|·recip must round-trip through the branchless path
	// without surprises (compare against direct big-arithmetic rounding).
	for qp := 0; qp <= 51; qp++ {
		var coef, levels [blockSize * blockSize]int32
		coef[0], coef[1] = peak, -peak
		sig, _ := quantizeBlock(&coef, qp, &levels)
		nz := bits.OnesCount64(sig)
		wantL := int32((int64(peak)*quantRecip[qp] + 1<<(quantShift-1)) >> quantShift)
		if levels[0] != wantL || levels[1] != -wantL {
			t.Fatalf("qp %d: levels (%d,%d), want ±%d", qp, levels[0], levels[1], wantL)
		}
		wantNZ := 0
		for _, l := range levels {
			if l != 0 {
				wantNZ++
			}
		}
		if nz != wantNZ {
			t.Fatalf("qp %d: nz = %d, want %d", qp, nz, wantNZ)
		}
	}
}

// TestFixedQuantizerMatchesReference bounds the level divergence between the
// reciprocal-multiply quantizer and the float-division reference across all
// QPs: levels may differ by at most 1, and only at ties within the
// reciprocal's 2^-20 relative error.
func TestFixedQuantizerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for qp := 0; qp <= 51; qp++ {
		var src, coef, levels [blockSize * blockSize]int32
		var fdct [blockSize * blockSize]float64
		var flevels [blockSize * blockSize]int32
		for trial := 0; trial < 20; trial++ {
			randResidualBlock(rng, &src)
			fdct8Fixed(&src, &coef)
			for i, c := range coef {
				fdct[i] = float64(c) / (1 << coefBits)
			}
			// Quantize the identical coefficients: fixed path against the
			// reference divide, using the fixed-point step the reciprocal
			// approximates so only the rounding strategy differs.
			qstep := float64(qstepFix[qp]) / (1 << coefBits)
			sig, _ := quantizeBlock(&coef, qp, &levels)
			nz := bits.OnesCount64(sig)
			refQuantizeBlock(&fdct, qstep, &flevels)
			gotNZ := 0
			for i := range levels {
				if d := levels[i] - flevels[i]; d < -1 || d > 1 {
					t.Fatalf("qp %d: level[%d] = %d, reference %d", qp, i, levels[i], flevels[i])
				}
				if levels[i] != 0 {
					gotNZ++
				}
			}
			if nz != gotNZ {
				t.Fatalf("qp %d: quantizeBlock nz = %d, counted %d", qp, nz, gotNZ)
			}
		}
	}
}

// TestQuantTablesConsistent pins the table relationships the scaling chain
// depends on: qstepFix tracks the float qstepTable law, quantRecip inverts
// qstepFix at 2^-20 relative error, and both are monotonic in QP (rate
// control bisects on QP and needs bits monotone).
func TestQuantTablesConsistent(t *testing.T) {
	for qp := 0; qp <= 51; qp++ {
		wantFix := math.Round(qstepTable[qp] * (1 << coefBits))
		if float64(qstepFix[qp]) != wantFix {
			t.Errorf("qstepFix[%d] = %d, want %.0f", qp, qstepFix[qp], wantFix)
		}
		got := float64(quantRecip[qp]) * float64(qstepFix[qp]) / (1 << quantShift)
		if math.Abs(got-1) > 1e-4 {
			t.Errorf("quantRecip[%d]·qstepFix[%d] = %.6f·2^24, want 1", qp, qp, got)
		}
		if qp > 0 {
			if qstepFix[qp] <= qstepFix[qp-1] {
				t.Errorf("qstepFix not strictly increasing at qp %d", qp)
			}
			if quantRecip[qp] >= quantRecip[qp-1] {
				t.Errorf("quantRecip not strictly decreasing at qp %d", qp)
			}
		}
	}
}

// TestWriteCoeffsEarlyExitMatchesBits drives the mask-walking writer
// against blockBits for random sparsities — priced as codeBlock prices a
// block, from the raster mask through the zigzag table: the walk over the
// set bits must emit exactly the arithmetic bit count (AnalyzeAndQuantize
// cross-checks this invariant on every frame, this pins it in isolation),
// and readCoeffs must hand the same mask back.
func TestWriteCoeffsEarlyExitMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		var levels, got [blockSize * blockSize]int32
		n := rng.Intn(64)
		for i := 0; i < n; i++ {
			levels[rng.Intn(64)] = int32(rng.Intn(2001) - 1000)
		}
		sig, lenSum := levelsSig(&levels)
		mask := zigzagMask(sig)
		if mask != levelsMask(&levels) {
			t.Fatalf("trial %d: zigzagMask %#x, per-sample mask %#x", trial, mask, levelsMask(&levels))
		}
		w := &BitWriter{}
		writeCoeffs(w, &levels, mask)
		if want := blockBits(mask, lenSum); w.Len() != want {
			t.Fatalf("trial %d: wrote %d bits, blockBits says %d", trial, w.Len(), want)
		}
		r := NewBitReader(w.Bytes())
		gotMask, err := readCoeffs(r, &got)
		if err != nil {
			t.Fatal(err)
		}
		if gotMask != mask {
			t.Fatalf("trial %d: readCoeffs mask %#x, block has %#x", trial, gotMask, mask)
		}
		if got != levels {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}
