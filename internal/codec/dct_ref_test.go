package codec

import "math"

// Float64 reference kernels: the pre-fixed-point matrix DCT and
// float-division quantizer, kept verbatim as the oracle the cross-check
// tests (dct_fixed_test.go, dct_test.go) and the ref columns of
// BenchmarkDCT/BenchmarkQuantize hold the fixed-point kernels to. Nothing
// outside the tests uses them.

// dctBasis holds the 8-point DCT-II basis, precomputed once.
var dctBasis = func() [blockSize][blockSize]float64 {
	var b [blockSize][blockSize]float64
	for k := 0; k < blockSize; k++ {
		a := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			a = math.Sqrt(1.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			b[k][n] = a * math.Cos(math.Pi*(float64(n)+0.5)*float64(k)/blockSize)
		}
	}
	return b
}()

// refFdct8 computes the separable 8×8 forward DCT of src into dst.
func refFdct8(src *[blockSize * blockSize]float64, dst *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
	// Rows.
	for y := 0; y < blockSize; y++ {
		for k := 0; k < blockSize; k++ {
			s := 0.0
			for n := 0; n < blockSize; n++ {
				s += dctBasis[k][n] * src[y*blockSize+n]
			}
			tmp[y*blockSize+k] = s
		}
	}
	// Columns.
	for x := 0; x < blockSize; x++ {
		for k := 0; k < blockSize; k++ {
			s := 0.0
			for n := 0; n < blockSize; n++ {
				s += dctBasis[k][n] * tmp[n*blockSize+x]
			}
			dst[k*blockSize+x] = s
		}
	}
}

// refIdct8 computes the inverse 8×8 DCT of src into dst.
func refIdct8(src *[blockSize * blockSize]float64, dst *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
	// Columns (transpose of forward).
	for x := 0; x < blockSize; x++ {
		for n := 0; n < blockSize; n++ {
			s := 0.0
			for k := 0; k < blockSize; k++ {
				s += dctBasis[k][n] * src[k*blockSize+x]
			}
			tmp[n*blockSize+x] = s
		}
	}
	// Rows.
	for y := 0; y < blockSize; y++ {
		for n := 0; n < blockSize; n++ {
			s := 0.0
			for k := 0; k < blockSize; k++ {
				s += dctBasis[k][n] * tmp[y*blockSize+k]
			}
			dst[y*blockSize+n] = s
		}
	}
}

// refQuantizeBlock quantizes float DCT coefficients with a uniform deadzone
// quantizer (float division, round half away from zero) and returns the
// number of nonzero levels.
func refQuantizeBlock(dct *[blockSize * blockSize]float64, qstep float64, levels *[blockSize * blockSize]int32) int {
	nz := 0
	for i, c := range dct {
		l := c / qstep
		if l >= 0 {
			levels[i] = int32(l + 0.5)
		} else {
			levels[i] = int32(l - 0.5)
		}
		if levels[i] != 0 {
			nz++
		}
	}
	return nz
}

// refDequantizeBlock reconstructs float DCT coefficients from levels.
func refDequantizeBlock(levels *[blockSize * blockSize]int32, qstep float64, dct *[blockSize * blockSize]float64) {
	for i, l := range levels {
		dct[i] = float64(l) * qstep
	}
}

// clampPix rounds a float sample to the nearest 8-bit pixel.
func clampPix(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
