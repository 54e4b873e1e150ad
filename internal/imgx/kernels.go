package imgx

import "encoding/binary"

// The row kernels: the 16-sample-wide SAD kernels of block matching and ssd,
// the squared-error row of MSE and RegionMSE. Every SAD kernel walks h rows
// of a 16-wide block: pa / pb start at the blocks' first samples, wa / wb are
// the row strides. The exported wrappers below prove, with ordinary slice
// indexing, that the last byte the kernel will touch lies inside each slice
// and then dispatch — to SSE2 assembly on amd64 (kernels_amd64.s), to the Go
// bodies in this file everywhere else (kernels_other.go). The Go bodies are
// the specification: the assembly must return what they return for every
// input, including the partial sum on an early exit, and kernels_test.go
// holds it to that on amd64, where both are compiled.
//
// The SAD kernels compare the running sum with earlyExit after each completed
// row, never inside one, and return it as soon as it is >= earlyExit.
// h <= 0 returns 0 without touching memory.

// SAD16 returns the sum of |a − b| over a 16×h block.
func SAD16(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	if h <= 0 {
		return 0
	}
	checkStrides(h, wa, wb, 0)
	_, _ = pa[(h-1)*wa+15], pb[(h-1)*wb+15]
	return sad16(pa, wa, pb, wb, h, earlyExit)
}

// SAD16Avg2 is SAD16 against the two-tap interpolation of b: every b sample
// is averaged with the one off bytes after it — off 1 for the horizontal
// half-pel phase, wb for the vertical — rounded (x+y+1)>>1.
func SAD16Avg2(pa []uint8, wa int, pb []uint8, wb, off, h, earlyExit int) int {
	if h <= 0 {
		return 0
	}
	checkStrides(h, wa, wb, off)
	_, _ = pa[(h-1)*wa+15], pb[(h-1)*wb+15+off]
	return sad16avg2(pa, wa, pb, wb, off, h, earlyExit)
}

// SAD16Avg4 is SAD16 against the diagonal half-pel phase of b: each sample
// is exactly (x+y+z+w+2)>>2 of the 2×2 neighbourhood it opens, never two
// chained rounded means.
func SAD16Avg4(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	if h <= 0 {
		return 0
	}
	checkStrides(h, wa, wb, 0)
	_, _ = pa[(h-1)*wa+15], pb[h*wb+16]
	return sad16avg4(pa, wa, pb, wb, h, earlyExit)
}

// Interp16 writes into dst (wd bytes a row) the 16×h block of b that the SAD
// kernels difference against: b itself, SAD16Avg2's two-tap mean with the
// sample to the right (oddX) or below (oddY), or SAD16Avg4's four-tap mean.
// It is Go on every architecture; a vertical phase carries each source row
// to the next output row, the diagonal as its pairSums.
func Interp16(dst []uint8, wd int, pb []uint8, wb int, oddX, oddY bool, h int) {
	if h <= 0 {
		return
	}
	checkStrides(h, wd, wb, 0)
	last := (h-1)*wb + 15
	if oddX {
		last++
	}
	if oddY {
		last += wb
	}
	_, _ = dst[(h-1)*wd+15], pb[last]
	le := binary.LittleEndian
	switch {
	case oddX && oddY:
		e0, o0, e1, o1 := pairSums((*[17]uint8)(pb))
		for y := 0; y < h; y++ {
			f0, p0, f1, p1 := pairSums((*[17]uint8)(pb[(y+1)*wb:]))
			d := (*[16]uint8)(dst[y*wd:])
			le.PutUint64(d[:8], quarter(e0+f0, o0+p0))
			le.PutUint64(d[8:], quarter(e1+f1, o1+p1))
			e0, o0, e1, o1 = f0, p0, f1, p1
		}
	case oddX:
		for y := 0; y < h; y++ {
			r, d := (*[17]uint8)(pb[y*wb:]), (*[16]uint8)(dst[y*wd:])
			le.PutUint64(d[:8], avgUp8(le.Uint64(r[:8]), le.Uint64(r[1:9])))
			le.PutUint64(d[8:], avgUp8(le.Uint64(r[8:16]), le.Uint64(r[9:])))
		}
	case oddY:
		r := (*[16]uint8)(pb)
		a0, a1 := le.Uint64(r[:8]), le.Uint64(r[8:])
		for y := 0; y < h; y++ {
			r = (*[16]uint8)(pb[(y+1)*wb:])
			b0, b1 := le.Uint64(r[:8]), le.Uint64(r[8:])
			d := (*[16]uint8)(dst[y*wd:])
			le.PutUint64(d[:8], avgUp8(a0, b0))
			le.PutUint64(d[8:], avgUp8(a1, b1))
			a0, a1 = b0, b1
		}
	default:
		for y := 0; y < h; y++ {
			*(*[16]uint8)(dst[y*wd:]) = *(*[16]uint8)(pb[y*wb:])
		}
	}
}

// checkStrides rejects a negative stride or tap offset, and sizes whose
// products could wrap: with either, the last row would not be the furthest
// byte a kernel touches and the wrappers' index checks would prove nothing.
func checkStrides(h, w0, w1, off int) {
	if uint64(h|w0|w1|off) >= 1<<31 {
		panic("imgx: kernel stride out of range")
	}
}

func sad16Go(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	sum := 0
	for y := 0; y < h; y++ {
		sum += int(sadRow16((*[16]uint8)(pa[y*wa:]), (*[16]uint8)(pb[y*wb:])))
		if sum >= earlyExit {
			return sum
		}
	}
	return sum
}

// ssdGo is the Go body of ssd: the sum of squared differences of a and b,
// sample by sample, over len(a) samples.
func ssdGo(a, b []uint8) uint64 {
	b = b[:len(a)]
	var s uint64
	for i := range a {
		d := int(a[i]) - int(b[i])
		s += uint64(d * d)
	}
	return s
}

// sad16avg2Go and sad16avg4Go take each row as two little-endian words per
// operand: the interpolated reference is formed eight samples at once and
// differenced with swarSAD8.
func sad16avg2Go(pa []uint8, wa int, pb []uint8, wb, off, h, earlyExit int) int {
	le := binary.LittleEndian
	sum := 0
	for y := 0; y < h; y++ {
		ra, rb := pa[y*wa:][:16], pb[y*wb:]
		p0 := avgUp8(le.Uint64(rb), le.Uint64(rb[off:]))
		p1 := avgUp8(le.Uint64(rb[8:]), le.Uint64(rb[off+8:]))
		sum += int(swarSAD8(le.Uint64(ra), p0)) + int(swarSAD8(le.Uint64(ra[8:]), p1))
		if sum >= earlyExit {
			return sum
		}
	}
	return sum
}

func sad16avg4Go(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	le := binary.LittleEndian
	sum := 0
	for y := 0; y < h; y++ {
		ra, rb := pa[y*wa:][:16], pb[y*wb:]
		p0 := avg4Up8(le.Uint64(rb), le.Uint64(rb[1:]), le.Uint64(rb[wb:]), le.Uint64(rb[wb+1:]))
		p1 := avg4Up8(le.Uint64(rb[8:]), le.Uint64(rb[9:]), le.Uint64(rb[wb+8:]), le.Uint64(rb[wb+9:]))
		sum += int(swarSAD8(le.Uint64(ra), p0)) + int(swarSAD8(le.Uint64(ra[8:]), p1))
		if sum >= earlyExit {
			return sum
		}
	}
	return sum
}

// sadRow16 sums |a[i]-b[i]| over a 16-pixel row as two 8-wide lane groups.
// The worst case (16 × 255 = 4080) fits a uint16 accumulator with room to
// spare, so the whole row stays in narrow arithmetic.
func sadRow16(a, b *[16]uint8) uint16 {
	return sadRow8((*[8]uint8)(a[0:8]), (*[8]uint8)(b[0:8])) +
		sadRow8((*[8]uint8)(a[8:16]), (*[8]uint8)(b[8:16]))
}

// sadRow8 sums |a[i]-b[i]| over 8 pixels: both rows are loaded as one
// little-endian word each and reduced with branch-free SWAR arithmetic
// (swarSAD8). Array-pointer parameters make the 8-byte loads provably in
// bounds, so the kernel compiles to two loads plus straight-line ALU ops.
func sadRow8(a, b *[8]uint8) uint16 {
	x := uint64(a[0]) | uint64(a[1])<<8 | uint64(a[2])<<16 | uint64(a[3])<<24 |
		uint64(a[4])<<32 | uint64(a[5])<<40 | uint64(a[6])<<48 | uint64(a[7])<<56
	y := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return swarSAD8(x, y)
}

// hi8 masks the high bit of each byte lane in a uint64, lo16 the low byte of
// each 16-bit lane.
const hi8, lo16 = 0x8080808080808080, 0x00ff00ff00ff00ff

// swarSAD8 computes the sum of absolute per-byte differences of two packed
// 8-byte words without branches or lane splits (a scalar psadbw):
//
//  1. d is the per-byte (x-y) mod 256 via the carry-isolating subtraction
//     identity d = ((x|H) - (y&^H)) ^ ((x^^y)&H) — forcing the high bit of
//     every x byte keeps borrows from crossing lane boundaries, and the
//     final xor repairs the true high bits.
//  2. m extracts the per-byte borrow-out (1 where x < y) from the standard
//     subtraction borrow predicate (^x&y) | ((^x|y)&d).
//  3. abs negates exactly the borrowed lanes: xor with the 0xFF mask is a
//     per-byte complement, and adding m (+1 in those lanes) completes the
//     two's-complement negation. ~d+1 never overflows a lane because d is
//     nonzero wherever m is set.
//  4. The horizontal add first widens to four uint16 lanes (each ≤ 510,
//     exact), then a multiply by the ones vector accumulates all lanes into
//     the top uint16 (≤ 2040, no overflow).
func swarSAD8(x, y uint64) uint16 {
	d := ((x | hi8) - (y &^ hi8)) ^ ((x ^ ^y) & hi8)
	m := (((^x & y) | ((^x | y) & d)) & hi8) >> 7
	abs := (d ^ (m * 0xFF)) + m
	const lo16 = 0x00FF00FF00FF00FF
	s := (abs & lo16) + ((abs >> 8) & lo16)
	return uint16((s * 0x0001000100010001) >> 48)
}

// avgUp8 is the per-byte (a+b+1)/2 of two packed words. a+b = 2(a|b) − (a^b),
// so the mean rounded up is (a|b) − (a^b)>>1; masking the shifted xor to
// seven bits a lane keeps the neighbouring lane's low bit out, and no lane
// borrows because (a|b) ≥ (a^b)>>1 bytewise.
func avgUp8(a, b uint64) uint64 {
	return (a | b) - (a^b)>>1&0x7f7f7f7f7f7f7f7f
}

// avg4Up8 is the per-byte (a+b+c+d+2)/4 of four packed words. Chaining
// avgUp8 would round twice, so the even and the odd bytes are summed exactly
// in 16-bit lanes (≤ 4·255+2) and shifted there (quarter).
func avg4Up8(a, b, c, d uint64) uint64 {
	return quarter(a&lo16+b&lo16+c&lo16+d&lo16, a>>8&lo16+b>>8&lo16+c>>8&lo16+d>>8&lo16)
}

// quarter packs the rounded quarters of 16-bit lane sums of the even and the
// odd bytes into one word; the lane mask drops the bits the shift pulls in.
func quarter(even, odd uint64) uint64 {
	const two = 0x0002000200020002
	return (even+two)>>2&lo16 | ((odd+two)>>2&lo16)<<8
}

// pairSums returns the lane sums of each sample of r[:16] and its right
// neighbour: even and odd bytes of the first word, then of the second.
func pairSums(r *[17]uint8) (e0, o0, e1, o1 uint64) {
	le := binary.LittleEndian
	a, b := le.Uint64(r[:8]), le.Uint64(r[1:9])
	c, d := le.Uint64(r[8:16]), le.Uint64(r[9:])
	return a&lo16 + b&lo16, a>>8&lo16 + b>>8&lo16, c&lo16 + d&lo16, c>>8&lo16 + d>>8&lo16
}
