package codec

import (
	"math"

	"dive/internal/imgx"
)

// Float64 reference path. This file keeps the pre-fixed-point transform,
// quantizer and intra-prediction implementations verbatim, for two
// consumers only: the cross-check tests that bound the fixed-point kernels'
// divergence, and the transform-parity experiment
// (experiments.TransformParity), which re-runs the full pipeline with
// Config.RefTransform set to measure the AP/bitrate cost of the switch.
// With RefTransform set the encoder/decoder reproduce the pre-switch
// bitstreams exactly; production never enters this file otherwise.

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

// refSample reads the reference pixel at (cx, cy) displaced by mv as a
// float, matching the pre-switch arithmetic (the value is integral either
// way; the fixed path uses refSampleI).
func refSample(ref *imgx.Plane, cx, cy int, mv MV, subpel bool) float64 {
	return float64(refSampleI(ref, cx, cy, mv, subpel))
}

// refIntraPredict fills pred with the float prediction for the 8×8 block at
// (px, py) under the given mode, reading reconstructed causal neighbors.
func refIntraPredict(recon *imgx.Plane, px, py, mode int, pred *[blockSize * blockSize]float64) {
	switch {
	case mode == intraModeVertical && py > 0:
		for x := 0; x < blockSize; x++ {
			v := float64(recon.At(px+x, py-1))
			for y := 0; y < blockSize; y++ {
				pred[y*blockSize+x] = v
			}
		}
	case mode == intraModeHorizontal && px > 0:
		for y := 0; y < blockSize; y++ {
			v := float64(recon.At(px-1, py+y))
			for x := 0; x < blockSize; x++ {
				pred[y*blockSize+x] = v
			}
		}
	default:
		dc := refIntraDC(recon, px, py)
		for i := range pred {
			pred[i] = dc
		}
	}
}

// refChooseIntraMode returns the mode with the smallest absolute prediction
// residual for the block at (px, py), using the float predictors.
func refChooseIntraMode(cur, recon *imgx.Plane, px, py int) int {
	bestMode, bestSAD := intraModeDC, 1<<30
	var pred [blockSize * blockSize]float64
	for mode := 0; mode < numIntraModes; mode++ {
		refIntraPredict(recon, px, py, mode, &pred)
		sad := 0
		for y := 0; y < blockSize && sad < bestSAD; y++ {
			for x := 0; x < blockSize; x++ {
				d := int(float64(cur.At(px+x, py+y)) - pred[y*blockSize+x])
				if d < 0 {
					d = -d
				}
				sad += d
			}
		}
		if sad < bestSAD {
			bestSAD = sad
			bestMode = mode
		}
	}
	return bestMode
}

// refIntraDC is the float DC predictor: the un-rounded neighbor mean (the
// fixed path rounds to the nearest integer).
func refIntraDC(recon *imgx.Plane, px, py int) float64 {
	sum, n := 0, 0
	if py > 0 {
		for x := 0; x < blockSize; x++ {
			sum += int(recon.At(px+x, py-1))
			n++
		}
	}
	if px > 0 {
		for y := 0; y < blockSize; y++ {
			sum += int(recon.At(px-1, py+y))
			n++
		}
	}
	if n == 0 {
		return 128
	}
	return float64(sum) / float64(n)
}

// refEncodeInterMB is the float encodeInterMB: quantize and entropy-code one
// inter macroblock from its cached float DCT blocks and, on the final pass,
// reconstruct it.
func refEncodeInterMB(w *BitWriter, dctBlocks [][blockSize * blockSize]float64, ref, recon *imgx.Plane, px, py int, mv MV, qp int, subpel, final bool) {
	qstep := qstepTable[qp]
	var dct, res [blockSize * blockSize]float64
	var levels [blockSize * blockSize]int32
	blk := 0
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			nz := refQuantizeBlock(&dctBlocks[blk], qstep, &levels)
			blk++
			writeCoeffs(w, &levels, nz)
			if !final {
				continue
			}
			refDequantizeBlock(&levels, qstep, &dct)
			refIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					cx, cy := px+bx+x, py+by+y
					v := refSample(ref, cx, cy, mv, subpel) + res[y*blockSize+x]
					recon.Set(cx, cy, clampPix(v))
				}
			}
		}
	}
}

// refEncodeIntraMB is the float encodeIntraMB: per-block directional
// prediction from reconstructed neighbors.
func refEncodeIntraMB(w *BitWriter, cur, recon *imgx.Plane, px, py int, qp int) {
	qstep := qstepTable[qp]
	var pred, res, dct [blockSize * blockSize]float64
	var levels [blockSize * blockSize]int32
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			mode := refChooseIntraMode(cur, recon, px+bx, py+by)
			w.WriteUE(uint32(mode))
			refIntraPredict(recon, px+bx, py+by, mode, &pred)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					res[y*blockSize+x] = float64(cur.At(px+bx+x, py+by+y)) - pred[y*blockSize+x]
				}
			}
			refFdct8(&res, &dct)
			nz := refQuantizeBlock(&dct, qstep, &levels)
			writeCoeffs(w, &levels, nz)
			refDequantizeBlock(&levels, qstep, &dct)
			refIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					recon.Set(px+bx+x, py+by+y, clampPix(pred[y*blockSize+x]+res[y*blockSize+x]))
				}
			}
		}
	}
}

// refQuantizeInterMB is the float quantizeInterMB: quantize one inter
// macroblock into out/nzOut, reconstruct it and return the exact bit cost.
func refQuantizeInterMB(dctBlocks [][blockSize * blockSize]float64, ref, recon *imgx.Plane, px, py int, mv MV, qp int, subpel bool, out []int32, nzOut []uint8) int {
	qstep := qstepTable[qp]
	var dct, res [blockSize * blockSize]float64
	bits := 0
	blk := 0
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			off := blk * blockSize * blockSize
			levels := (*[blockSize * blockSize]int32)(out[off : off+blockSize*blockSize])
			nz := refQuantizeBlock(&dctBlocks[blk], qstep, levels)
			nzOut[blk] = uint8(nz)
			bits += coeffsBits(levels, nz)
			blk++
			refDequantizeBlock(levels, qstep, &dct)
			refIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					cx, cy := px+bx+x, py+by+y
					v := refSample(ref, cx, cy, mv, subpel) + res[y*blockSize+x]
					recon.Set(cx, cy, clampPix(v))
				}
			}
		}
	}
	return bits
}

// refQuantizeIntraMB is the float quantizeIntraMB.
func refQuantizeIntraMB(cur, recon *imgx.Plane, px, py int, qp int, out []int32, modesOut, nzOut []uint8) int {
	qstep := qstepTable[qp]
	var pred, res, dct [blockSize * blockSize]float64
	bits := 0
	blk := 0
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			mode := refChooseIntraMode(cur, recon, px+bx, py+by)
			modesOut[blk] = uint8(mode)
			bits += ueBits(uint32(mode))
			refIntraPredict(recon, px+bx, py+by, mode, &pred)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					res[y*blockSize+x] = float64(cur.At(px+bx+x, py+by+y)) - pred[y*blockSize+x]
				}
			}
			refFdct8(&res, &dct)
			off := blk * blockSize * blockSize
			levels := (*[blockSize * blockSize]int32)(out[off : off+blockSize*blockSize])
			nz := refQuantizeBlock(&dct, qstep, levels)
			nzOut[blk] = uint8(nz)
			bits += coeffsBits(levels, nz)
			blk++
			refDequantizeBlock(levels, qstep, &dct)
			refIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					recon.Set(px+bx+x, py+by+y, clampPix(pred[y*blockSize+x]+res[y*blockSize+x]))
				}
			}
		}
	}
	return bits
}

// refCountInterMB is the float countInterMB: exact entropy-coded length of
// one inter macroblock's levels, no reconstruction.
func refCountInterMB(dctBlocks [][blockSize * blockSize]float64, qp int) int {
	qstep := qstepTable[qp]
	var levels [blockSize * blockSize]int32
	bits := 0
	for blk := 0; blk < 4; blk++ {
		nz := refQuantizeBlock(&dctBlocks[blk], qstep, &levels)
		bits += coeffsBits(&levels, nz)
	}
	return bits
}

// refDecodeInterMB is the float decodeInterMB.
func refDecodeInterMB(r *BitReader, ref, recon *imgx.Plane, px, py int, mv MV, qp int, subpel bool) error {
	qstep := qstepTable[qp]
	var dct, res [blockSize * blockSize]float64
	var levels [blockSize * blockSize]int32
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			if _, err := readCoeffs(r, &levels); err != nil {
				return err
			}
			refDequantizeBlock(&levels, qstep, &dct)
			refIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					cx, cy := px+bx+x, py+by+y
					v := refSample(ref, cx, cy, mv, subpel) + res[y*blockSize+x]
					recon.Set(cx, cy, clampPix(v))
				}
			}
		}
	}
	return nil
}

// refDecodeIntraMB is the float decodeIntraMB.
func refDecodeIntraMB(r *BitReader, recon *imgx.Plane, px, py int, qp int) error {
	qstep := qstepTable[qp]
	var pred, dct, res [blockSize * blockSize]float64
	var levels [blockSize * blockSize]int32
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			m, err := r.ReadUE()
			if err != nil {
				return err
			}
			if m >= numIntraModes {
				return errBadIntraMode(m)
			}
			if _, err := readCoeffs(r, &levels); err != nil {
				return err
			}
			refIntraPredict(recon, px+bx, py+by, int(m), &pred)
			refDequantizeBlock(&levels, qstep, &dct)
			refIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					recon.Set(px+bx+x, py+by+y, clampPix(pred[y*blockSize+x]+res[y*blockSize+x]))
				}
			}
		}
	}
	return nil
}

func clampPix(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
