package codec

import (
	"math"
	"math/bits"
)

// Fixed-point transform and quantization kernels — the production path.
//
// The float64 matrix-multiply DCT cost 128 multiply-adds per 1-D pass; this
// file replaces it with a factorized even/odd (Loeffler-style) butterfly in
// int32 fixed point: 22 multiplies per 1-D pass, integer adds and shifts,
// no float division and no math.Pow anywhere on the encode path. The same
// kernels run in the encoder's quantize/reconstruction passes, the
// rate-control trials and the decoder, so encoder recon stays bit-exact
// with decode (every kernel is a pure per-block function of its inputs).
//
// Scaling chain (see DESIGN.md §12 for the range proof):
//
//	residual        int32, |r| ≤ 255                 scale 2^0
//	fdct pass 1     (Σ c·r + 2^8)  >> 9              scale 2^pass1Bits
//	fdct pass 2     (Σ c·t + 2^12) >> 13             scale 2^coefBits
//	quantize        (|a|·recip[qp] + 2^23) >> 24     integer level
//	dequantize      level · qstepFix[qp]             scale 2^coefBits
//	idct pass 1     (Σ c·X + 2^12) >> 13             scale 2^pass1Bits
//	idct pass 2     (Σ c·t + 2^16) >> 17             scale 2^0 (residual)
//
// Constants carry constBits = 13 fractional bits; coefficients leave the
// forward transform with coefBits = 4 fractional bits (|coef| ≤ ~2155 true,
// so ≤ ~34500 fixed — comfortably int32). The forward accumulators are
// bounded by 5.9M (pass 1) and 267M (pass 2); the inverse accumulates in
// int64, which also makes the decode path immune to overflow on corrupt
// bitstreams (Go integer wrap is defined behavior either way — the
// robustness property test only demands no panic). Shifts round half-up:
// (acc + 1<<(s-1)) >> s, identical on both passes and in the decoder.
const (
	coefBits   = 4  // fractional bits of fixed-point DCT coefficients
	constBits  = 13 // fractional bits of the trig constants
	pass1Bits  = 4  // extra fractional bits carried between 1-D passes
	quantShift = 24 // fractional bits of the quantizer reciprocals

	fdctShift1 = constBits - pass1Bits            // 9
	fdctShift2 = constBits + pass1Bits - coefBits // 13
	idctShift1 = constBits + coefBits - pass1Bits // 13
	idctShift2 = constBits + pass1Bits            // 17

	fdctRnd1 = 1 << (fdctShift1 - 1)
	fdctRnd2 = 1 << (fdctShift2 - 1)
	idctRnd1 = 1 << (idctShift1 - 1)
	idctRnd2 = 1 << (idctShift2 - 1)
)

// fixK = round(½·cos(kπ/16)·2^constBits): the factorized DCT constants.
// ½·cos(4π/16) doubles as the orthonormal DC gain 1/(2√2).
var (
	fixC1 = fixConst(1)
	fixC2 = fixConst(2)
	fixC3 = fixConst(3)
	fixC4 = fixConst(4)
	fixC5 = fixConst(5)
	fixC6 = fixConst(6)
	fixC7 = fixConst(7)
)

func fixConst(k int) int32 {
	return int32(math.Round(0.5 * math.Cos(float64(k)*math.Pi/16) * (1 << constBits)))
}

// qstepTable maps a quantizer parameter (0..51) to its quantization step,
// 0.625·2^(qp/6): the H.264 convention of the step doubling every 6 QP. The
// dequantizer multipliers and the loop filter's thresholds derive from it.
// Package-level, like every table here: the steady-state encode loop is
// pinned at 0 allocs/frame.
var qstepTable = func() [52]float64 {
	var t [52]float64
	for qp := range t {
		t[qp] = 0.625 * math.Pow(2, float64(qp)/6)
	}
	return t
}()

// qstepFix[qp] = round(qstepTable[qp]·2^coefBits): the integer dequantizer
// multiplier, in the same fixed-point units as the forward transform's
// output — level·qstepFix reconstructs a coefficient directly.
var qstepFix = func() [52]int32 {
	var t [52]int32
	for qp := range t {
		t[qp] = int32(math.Round(qstepTable[qp] * (1 << coefBits)))
	}
	return t
}()

// quantRecip[qp] = round(2^quantShift / qstepFix[qp]): reciprocal
// multipliers replacing the per-coefficient float division in the
// quantizer. Products are formed in 64 bits (one imul on 64-bit targets, a
// PMULUDQ lane in the SSE2 body: recip < 2^21 and |coef| < 2^31 are both
// 32-bit operands), so the full |coef|·recip range fits without narrowing
// the reciprocals.
var quantRecip = func() [52]int64 {
	var t [52]int64
	for qp := range t {
		t[qp] = int64(math.Round((1 << quantShift) / float64(qstepFix[qp])))
	}
	return t
}()

// zeroBelow[qp] is the quantizer's dead zone: the smallest coefficient
// magnitude whose level at qp is nonzero. quantizeBlock maps a to
// (a·recip + 2^(quantShift-1)) >> quantShift, which reaches 1 exactly when
// a·recip ≥ 2^(quantShift-1), so the threshold is that bound divided by
// the reciprocal, rounded up. A block whose largest magnitude is below it
// quantizes to all zeros — quantizeInterMB tests that against an upper
// bound on the maximum instead of quantizing.
var zeroBelow = func() [52]uint32 {
	var t [52]uint32
	for qp, r := range quantRecip {
		t[qp] = uint32((1<<(quantShift-1) + r - 1) / r)
	}
	return t
}()

// idctPass is the inverse of fdctRowsT's butterfly (transposed, with int64
// accumulators) over one 8-point group of a block: elements sit at
// in[base+j*step].
func idctPass(in, out *[blockSize * blockSize]int32, base, step int, rnd int64, shift uint) {
	c1, c2, c3, c4 := int64(fixC1), int64(fixC2), int64(fixC3), int64(fixC4)
	c5, c6, c7 := int64(fixC5), int64(fixC6), int64(fixC7)
	i0, i1, i2, i3 := base, base+step, base+2*step, base+3*step
	i4, i5, i6, i7 := base+4*step, base+5*step, base+6*step, base+7*step
	v0, v2, v4, v6 := int64(in[i0]), int64(in[i2]), int64(in[i4]), int64(in[i6])
	v1, v3, v5, v7 := int64(in[i1]), int64(in[i3]), int64(in[i5]), int64(in[i7])
	a0, a4 := c4*(v0+v4), c4*(v0-v4)
	t2, t6 := c2*v2+c6*v6, c6*v2-c2*v6
	e0, e1, e2, e3 := a0+t2, a4+t6, a4-t6, a0-t2
	q0 := c1*v1 + c3*v3 + c5*v5 + c7*v7
	q1 := c3*v1 - c7*v3 - c1*v5 - c5*v7
	q2 := c5*v1 - c1*v3 + c7*v5 + c3*v7
	q3 := c7*v1 - c5*v3 + c3*v5 - c1*v7
	out[i0] = int32((e0 + q0 + rnd) >> shift)
	out[i1] = int32((e1 + q1 + rnd) >> shift)
	out[i2] = int32((e2 + q2 + rnd) >> shift)
	out[i3] = int32((e3 + q3 + rnd) >> shift)
	out[i4] = int32((e3 - q3 + rnd) >> shift)
	out[i5] = int32((e2 - q2 + rnd) >> shift)
	out[i6] = int32((e1 - q1 + rnd) >> shift)
	out[i7] = int32((e0 - q0 + rnd) >> shift)
}

// fdct8Fixed computes the fixed-point forward 8×8 DCT of an integer
// residual block: output coefficients carry coefBits fractional bits. Two
// transposing row passes make the separable transform: the first leaves the
// row-transformed block transposed, so the second — again along rows — runs
// down the original columns and restores the orientation.
func fdct8Fixed(src, dst *[blockSize * blockSize]int32) {
	var tmp [blockSize * blockSize]int32
	fdctRowsT(src, &tmp, fdctRnd1, fdctShift1)
	fdctRowsT(&tmp, dst, fdctRnd2, fdctShift2)
}

// fdctRowsT applies the forward butterfly to each row of in and stores row
// y's coefficients down column y of out. Even coefficients come from the sum
// half of the input butterfly (2 + 2 + 2 multiplies), odd from the
// difference half (4×4): 22 multiplies per row.
func fdctRowsT(in, out *[blockSize * blockSize]int32, rnd int32, shift uint) {
	for y := 0; y < blockSize; y++ {
		r := (*[blockSize]int32)(in[y*blockSize:])
		s0, s1, s2, s3 := r[0]+r[7], r[1]+r[6], r[2]+r[5], r[3]+r[4]
		d0, d1, d2, d3 := r[0]-r[7], r[1]-r[6], r[2]-r[5], r[3]-r[4]
		e0, e1 := s0+s3, s1+s2
		e2, e3 := s0-s3, s1-s2
		o := out[y : y+7*blockSize+1]
		o[0*blockSize] = (fixC4*(e0+e1) + rnd) >> shift
		o[4*blockSize] = (fixC4*(e0-e1) + rnd) >> shift
		o[2*blockSize] = (fixC2*e2 + fixC6*e3 + rnd) >> shift
		o[6*blockSize] = (fixC6*e2 - fixC2*e3 + rnd) >> shift
		o[1*blockSize] = (fixC1*d0 + fixC3*d1 + fixC5*d2 + fixC7*d3 + rnd) >> shift
		o[3*blockSize] = (fixC3*d0 - fixC7*d1 - fixC1*d2 - fixC5*d3 + rnd) >> shift
		o[5*blockSize] = (fixC5*d0 - fixC1*d1 + fixC7*d2 + fixC3*d3 + rnd) >> shift
		o[7*blockSize] = (fixC7*d0 - fixC5*d1 + fixC3*d2 - fixC1*d3 + rnd) >> shift
	}
}

// idct8Fixed inverts fdct8Fixed: fixed-point coefficients in, integer
// residuals out. Quantized blocks are sparse, so the column pass skips
// all-zero columns: their transform is (0 + idctRnd1) >> idctShift1 == 0,
// which tmp already holds.
func idct8Fixed(src, dst *[blockSize * blockSize]int32) {
	var tmp [blockSize * blockSize]int32
	for x := 0; x < blockSize; x++ {
		if src[x]|src[x+8]|src[x+16]|src[x+24]|src[x+32]|src[x+40]|src[x+48]|src[x+56] == 0 {
			continue
		}
		idctPass(src, &tmp, x, blockSize, idctRnd1, idctShift1)
	}
	for y := 0; y < blockSize; y++ {
		idctPass(&tmp, dst, y*blockSize, 1, idctRnd2, idctShift2)
	}
}

// quantizeBlockGo is the specification of quantizeBlock, the encoder's one
// quantizer, and its body on every platform without an assembly one. It
// quantizes fixed-point coefficients with the uniform deadzone quantizer via
// a reciprocal multiply (no division; round half away from zero, as the
// float reference does), stores the signed levels in raster order, and
// returns what pricing the block needs (blockBits): sig, the raster
// significance mask (bit i set when levels[i] ≠ 0), and lenSum, Σ
// bitLen(|level|). Its domain is |c| < 2^24 — ≈ 500× the largest
// coefficient the forward transform produces (DESIGN.md §12) — where every
// body returns the same three results.
func quantizeBlockGo(coef *[blockSize * blockSize]int32, qp int, levels *[blockSize * blockSize]int32) (sig uint64, lenSum int) {
	r := quantRecip[qp]
	for i, c := range coef {
		s := c >> 31 // 0 or -1
		a := (c ^ s) - s
		l := uint32((int64(a)*r + 1<<(quantShift-1)) >> quantShift)
		levels[i] = (int32(l) ^ s) - s
		lenSum += bits.Len32(l)
		sig |= uint64((l|-l)>>31) << uint(i)
	}
	return sig, lenSum
}

// dequantizeBlockFixed reconstructs fixed-point coefficients from levels.
func dequantizeBlockFixed(levels *[blockSize * blockSize]int32, qp int, coef *[blockSize * blockSize]int32) {
	q := qstepFix[qp]
	for i, l := range levels {
		coef[i] = l * q
	}
}

// fdctResidualGo is the specification of fdctResidual, the encoder's one
// forward transform, and its body on every platform without an assembly one.
// It transforms the 8×8 residual cur − pred (rows cstride and pstride bytes
// apart) into coef and returns the OR of the coefficients' magnitudes: an
// upper bound on the largest, which the dead-zone test reads instead of the
// block (quantizeInterMB).
func fdctResidualGo(cur []uint8, cstride int, pred []uint8, pstride int, coef *[blockSize * blockSize]int32) uint32 {
	var res [blockSize * blockSize]int32
	for y := 0; y < blockSize; y++ {
		c, p := cur[y*cstride:][:blockSize], pred[y*pstride:][:blockSize]
		for x := range c {
			res[y*blockSize+x] = int32(c[x]) - int32(p[x])
		}
	}
	fdct8Fixed(&res, coef)
	or := int32(0)
	for _, v := range coef {
		s := v >> 31
		or |= (v ^ s) - s
	}
	return uint32(or)
}

// idctAddGo is the specification of idctAdd, the one inverse path of the
// encoder's reconstruction and the decoder, and its body on every platform
// without an assembly one: it dequantizes levels at qp, inverse-transforms
// them and stores prediction + residual, clamped to a byte, into dst (rows
// dstride bytes apart; pred's pstride). Every input is in its domain — a
// hostile stream's level wraps in the dequantizer's int32 multiply and the
// inverse accumulates in int64 — and the SSE2 body hands the blocks it cannot
// carry in int16 lanes back to this one.
func idctAddGo(dst []uint8, dstride int, pred []uint8, pstride int, levels *[blockSize * blockSize]int32, qp int) {
	var dct, res [blockSize * blockSize]int32
	dequantizeBlockFixed(levels, qp, &dct)
	idct8Fixed(&dct, &res)
	for y := 0; y < blockSize; y++ {
		out, p := dst[y*dstride:][:blockSize], pred[y*pstride:][:blockSize]
		r := res[y*blockSize:][:blockSize]
		for x := range out {
			out[x] = clampPixI(int32(p[x]) + r[x])
		}
	}
}
