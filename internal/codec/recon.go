package codec

import "dive/internal/imgx"

// Reconstruction kernels shared by Encoder and Decoder. Phase one of the
// encoder (quantizePass, buildInterDCTCache) and Decoder.Decode predict every
// inter macroblock through predictBlock and rebuild it through
// reconstructInterMB, and every intra block through reconstructBlock, so the
// two sides cannot drift apart: they run the same function on the same
// levels. All work on row slices of Pix; writers Bump the plane once per
// frame.

// predictBlock writes the 16×16 motion-compensated prediction of the
// macroblock whose top-left pixel is (x0, y0) into dst (stride bytes per
// row); mv is in half-pel units when subpel is set. Every block, border and
// hostile out-of-frame vectors included, is one word-wide imgx.Interp16 over
// refWindow's samples.
func predictBlock(dst []uint8, stride int, ref *imgx.Plane, x0, y0 int, mv MV, subpel bool) {
	hx, hy := 2*(x0+int(mv.X)), 2*(y0+int(mv.Y))
	if subpel {
		hx, hy = 2*x0+int(mv.X), 2*y0+int(mv.Y)
	}
	var patch refPatch
	pb, wb := refWindow(ref, hx, hy, &patch)
	imgx.Interp16(dst, stride, pb, wb, hx&1 == 1, hy&1 == 1, MBSize)
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
// by mv straight into recon, then runs idctAdd in place (each row reads its
// prediction before storing it) on each block levels (4 × 64) and masks (4)
// give coefficients; a block without them is its prediction.
func reconstructInterMB(recon, ref *imgx.Plane, px, py int, mv MV, subpel bool, levels []int32, masks []uint64, qp int) {
	mb := recon.Pix[py*recon.W+px:]
	predictBlock(mb, recon.W, ref, px, py, mv, subpel)
	for blk, mask := range masks[:4] {
		if mask == 0 {
			continue
		}
		dst := mb[blk/2*blockSize*recon.W+blk%2*blockSize:]
		idctAdd(dst, recon.W, dst, recon.W, (*[blockSize * blockSize]int32)(levels[blk*blockSize*blockSize:]), qp)
	}
}
