package codec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// maxKernelCoef is the largest coefficient magnitude inside quantizeBlock's
// stated domain (|c| < 2^24), where every body must agree.
const maxKernelCoef = 1<<24 - 1

// levelsSig is the per-sample reference for what the quantizer returns
// besides its levels: the raster significance mask and Σ bitLen(|level|).
func levelsSig(levels *[blockSize * blockSize]int32) (sig uint64, lenSum int) {
	for i, l := range levels {
		if l != 0 {
			sig |= 1 << uint(i)
		}
		if l < 0 {
			l = -l
		}
		lenSum += bits.Len32(uint32(l))
	}
	return sig, lenSum
}

// levelsMask is the per-sample reference for a block's zigzag significance
// mask, the one codeBlock returns and writeCoeffs walks: bit k set when the
// level at zigzag position k is nonzero.
func levelsMask(levels *[blockSize * blockSize]int32) (mask uint64) {
	for k, pos := range zigzag8 {
		if levels[pos] != 0 {
			mask |= 1 << uint(k)
		}
	}
	return mask
}

// checkQuantize holds the Go body and the dispatched kernel to the
// reference — quantizeBlockFixed's levels and levelsSig of them — on one
// block at one QP. Both write into levels that start dirty, so a lane the
// kernel fails to store shows.
func checkQuantize(t *testing.T, name string, coef *[blockSize * blockSize]int32, qp int) {
	t.Helper()
	var want [blockSize * blockSize]int32
	quantizeBlockFixed(coef, qp, &want)
	wantSig, wantLen := levelsSig(&want)
	for _, body := range quantizeBodies {
		var got [blockSize * blockSize]int32
		for i := range got {
			got[i] = -7
		}
		sig, lenSum := body.quantize(coef, qp, &got)
		if got != want || sig != wantSig || lenSum != wantLen {
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s qp %d %s: level[%d] of %d = %d, want %d", name, qp, body.name, i, coef[i], got[i], want[i])
					break
				}
			}
			t.Fatalf("%s qp %d %s: sig %#x lenSum %d, want %#x %d", name, qp, body.name, sig, lenSum, wantSig, wantLen)
		}
	}
}

var quantizeBodies = []struct {
	name     string
	quantize func(coef *[blockSize * blockSize]int32, qp int, levels *[blockSize * blockSize]int32) (uint64, int)
}{
	{"go", quantizeBlockGo},
	{"kernel", quantizeBlock},
}

// levelAt is the quantizer's level for magnitude a at qp.
func levelAt(a int64, qp int) int64 {
	return (a*quantRecip[qp] + 1<<(quantShift-1)) >> quantShift
}

// TestQuantizeBlockEdges runs both bodies at every QP over the inputs where
// an off-by-one would show: all-zero blocks; all-+max, all-−max and
// alternating ±max blocks (max = the domain's 2^24 − 1); the dead zone's
// edge, zeroBelow[qp] − 1 (level 0) beside zeroBelow[qp] (level 1); and for
// every level bit length the kernel can produce, the magnitude where the
// level reaches 2^j beside the one below it (bitLen j+1 beside j — the float
// exponent's edge). Each pattern repeats with period 4 and is rotated
// through every lane of a 4-lane step.
func TestQuantizeBlockEdges(t *testing.T) {
	var coef [blockSize * blockSize]int32
	fill := func(pattern [4]int64, rot int) {
		for i := range coef {
			coef[i] = int32(pattern[(i+rot)%4])
		}
	}
	for qp := 0; qp < 52; qp++ {
		fill([4]int64{}, 0)
		checkQuantize(t, "all zero", &coef, qp)
		for _, p := range [][4]int64{
			{maxKernelCoef, maxKernelCoef, maxKernelCoef, maxKernelCoef},
			{-maxKernelCoef, -maxKernelCoef, -maxKernelCoef, -maxKernelCoef},
			{maxKernelCoef, -maxKernelCoef, maxKernelCoef, -maxKernelCoef},
		} {
			fill(p, 0)
			checkQuantize(t, "±max", &coef, qp)
		}

		z := int64(zeroBelow[qp])
		if levelAt(z-1, qp) != 0 || levelAt(z, qp) != 1 {
			t.Fatalf("qp %d: zeroBelow %d is not the dead zone's edge", qp, z)
		}
		for rot := 0; rot < 4; rot++ {
			fill([4]int64{z - 1, z, -(z - 1), -z}, rot)
			checkQuantize(t, "dead zone", &coef, qp)
		}

		for j := 0; ; j++ {
			// The smallest a with a·recip + 2^23 ≥ 2^j · 2^24.
			a := ((int64(1)<<(j+quantShift) - 1<<(quantShift-1)) + quantRecip[qp] - 1) / quantRecip[qp]
			if a > maxKernelCoef {
				break
			}
			if levelAt(a, qp) != 1<<j || levelAt(a-1, qp) != 1<<j-1 {
				t.Fatalf("qp %d: %d is not where the level reaches 2^%d", qp, a, j)
			}
			for rot := 0; rot < 4; rot++ {
				fill([4]int64{a - 1, a, -(a - 1), -a}, rot)
				checkQuantize(t, "2^j edge", &coef, qp)
			}
		}
	}
}

// TestBlockBitsMatchesRunLoop holds blockBits' popcount run term to the
// trailing-zero loop it replaced (oracleBlockBits) on every single-bit mask,
// every prefix and suffix mask, and random masks from sparse to dense.
func TestBlockBitsMatchesRunLoop(t *testing.T) {
	check := func(mask uint64, lenSum int) {
		t.Helper()
		if got, want := blockBits(mask, lenSum), oracleBlockBits(mask, lenSum); got != want {
			t.Fatalf("blockBits(%#x, %d) = %d, run loop = %d", mask, lenSum, got, want)
		}
	}
	check(0, 0)
	for k := 0; k < 64; k++ {
		check(1<<uint(k), 1)
		check(1<<uint(k+1)-1, k+1) // prefix: k+1 coefficients, no run
		check(^uint64(0)<<uint(k), 64-k)
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100_000; trial++ {
		m := rng.Uint64()
		switch trial % 4 {
		case 1:
			m &= rng.Uint64() & rng.Uint64() // sparse: long runs
		case 2:
			m |= rng.Uint64() // dense: short runs
		case 3:
			m &= 1<<uint(rng.Intn(64)) - 1 // a shorter block
		}
		check(m, rng.Intn(1000))
	}
}

// FuzzQuantizeBlock maps the fuzzer's bytes to a QP and 64 coefficients
// inside the kernel's domain — a sign, 24 magnitude bits and a shift that
// spreads the magnitudes from 0 to 2^24 − 1 — and holds both bodies to the
// reference. Missing bytes read as zero.
func FuzzQuantizeBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{0, 16, 256} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(uint8(n), seed)
	}
	f.Add(uint8(51), []byte{0xff, 0xff, 0xff, 0x80, 0xff, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, qp uint8, data []byte) {
		var coef [blockSize * blockSize]int32
		for i := range coef {
			var v uint32
			for k := 0; k < 4 && 4*i+k < len(data); k++ {
				v |= uint32(data[4*i+k]) << (8 * k)
			}
			c := int32(v&maxKernelCoef) >> min((v>>24)&31, 24)
			if v>>31 == 1 {
				c = -c
			}
			coef[i] = c
		}
		checkQuantize(t, "fuzz", &coef, int(qp)%52)
	})
}
