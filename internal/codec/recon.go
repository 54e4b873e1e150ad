package codec

import "dive/internal/imgx"

// Reconstruction kernels shared by Encoder and Decoder. Phase one of the
// encoder (quantizePass, buildInterDCTCache) and Decoder.Decode predict every block
// through predictBlock and rebuild every block through reconstructBlock, so
// the two sides cannot drift apart: they run the same function on the same
// levels. Both work on row slices of Pix; writers Bump the plane once per
// frame.

// predictBlock writes the w×h motion-compensated prediction of the block
// whose top-left pixel is (x0, y0) into dst (stride bytes per row). mv is
// in half-pel units when subpel is set. When every reference sample the
// block touches lies inside ref — always, for vectors the encoder's search
// produces away from the border — rows are copied or averaged straight from
// Pix, specialised on which axes sit on a half position; otherwise (border
// blocks, or an out-of-frame vector in a hostile stream) each sample goes
// through the clamping refSampleI. Both paths round identically.
func predictBlock(dst []uint8, stride int, ref *imgx.Plane, x0, y0, w, h int, mv MV, subpel bool) {
	ix, iy := x0+int(mv.X), y0+int(mv.Y)
	oddX, oddY := false, false
	if subpel {
		hx, hy := 2*x0+int(mv.X), 2*y0+int(mv.Y)
		ix, iy = hx>>1, hy>>1
		oddX, oddY = hx&1 == 1, hy&1 == 1
	}
	// xe, ye: one past the last integer sample touched (the bilinear taps
	// reach one further on an odd axis).
	xe, ye := ix+w, iy+h
	if oddX {
		xe++
	}
	if oddY {
		ye++
	}
	if ix < 0 || iy < 0 || xe > ref.W || ye > ref.H {
		for y := 0; y < h; y++ {
			row := dst[y*stride : y*stride+w]
			for x := range row {
				row[x] = uint8(refSampleI(ref, x0+x, y0+y, mv, subpel))
			}
		}
		return
	}
	for y := 0; y < h; y++ {
		row := dst[y*stride : y*stride+w]
		r0 := ref.Pix[(iy+y)*ref.W+ix : (iy+y)*ref.W+xe]
		switch {
		case !oddX && !oddY:
			copy(row, r0)
		case oddX && !oddY:
			for x := range row {
				row[x] = uint8((int(r0[x]) + int(r0[x+1]) + 1) / 2)
			}
		case !oddX && oddY:
			r1 := ref.Pix[(iy+y+1)*ref.W+ix : (iy+y+1)*ref.W+xe]
			for x := range row {
				row[x] = uint8((int(r0[x]) + int(r1[x]) + 1) / 2)
			}
		default:
			r1 := ref.Pix[(iy+y+1)*ref.W+ix : (iy+y+1)*ref.W+xe]
			for x := range row {
				row[x] = uint8((int(r0[x]) + int(r0[x+1]) + int(r1[x]) + int(r1[x+1]) + 2) / 4)
			}
		}
	}
}

// reconstructBlock rebuilds the 8×8 block of recon at (x, y) from its
// prediction (pred, pstride bytes per row) and quantized levels: dequantize,
// inverse transform, add, clamp — one idctAdd. mask is the block's
// significance mask; a block without coefficients (mask 0) is its prediction
// (the inverse transform of zero is exactly zero), so it skips the transform.
func reconstructBlock(recon *imgx.Plane, x, y int, pred []uint8, pstride int, levels *[blockSize * blockSize]int32, mask uint64, qp int) {
	dst := recon.Pix[y*recon.W+x:]
	if mask == 0 {
		for r := 0; r < blockSize; r++ {
			copy(dst[r*recon.W:][:blockSize], pred[r*pstride:])
		}
		return
	}
	idctAdd(dst, recon.W, pred, pstride, levels, qp)
}

// reconstructInterMB predicts the macroblock at (px, py) from ref displaced
// by mv and rebuilds its four blocks from levels (4 × 64) and masks (4).
func reconstructInterMB(recon, ref *imgx.Plane, px, py int, mv MV, subpel bool, levels []int32, masks []uint64, qp int) {
	var pred [MBSize * MBSize]uint8
	predictBlock(pred[:], MBSize, ref, px, py, MBSize, MBSize, mv, subpel)
	for blk := 0; blk < 4; blk++ {
		bx, by := blk%2*blockSize, blk/2*blockSize
		reconstructBlock(recon, px+bx, py+by, pred[by*MBSize+bx:], MBSize,
			(*[blockSize * blockSize]int32)(levels[blk*blockSize*blockSize:]), masks[blk], qp)
	}
}
