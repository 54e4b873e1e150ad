package codec

import "dive/internal/imgx"

// Half-pel motion support. When Config.SubPel is set, motion vectors are
// expressed in half-pixel units (the paper's x264 baseline searches at
// sub-pixel precision) and motion compensation samples the reference plane
// bilinearly. Sub-pixel vectors roughly halve the quantization noise the
// geometric stages (rotation estimation, Eq. 8 normalization) see.

// sadHalf computes the SAD between the macroblock at (ax, ay) in a and the
// half-pel displaced macroblock at half-pel origin (hbx, hby) in b, with
// early exit (checked after each completed row, matching imgx.SAD).
func sadHalf(a *imgx.Plane, ax, ay int, b *imgx.Plane, hbx, hby, earlyExit int) int {
	// Even coordinates are plain integer SAD.
	if hbx&1 == 0 && hby&1 == 0 {
		return imgx.SAD(a, ax, ay, b, hbx>>1, hby>>1, MBSize, MBSize, earlyExit)
	}
	// Each odd phase is one imgx row kernel over refWindow's samples.
	var patch refPatch
	pb, wb := refWindow(b, hbx, hby, &patch)
	pa := a.Pix[ay*a.W+ax:]
	switch {
	case hbx&1 == 1 && hby&1 == 1:
		return imgx.SAD16Avg4(pa, a.W, pb, wb, MBSize, earlyExit)
	case hbx&1 == 1:
		return imgx.SAD16Avg2(pa, a.W, pb, wb, 1, MBSize, earlyExit)
	default:
		return imgx.SAD16Avg2(pa, a.W, pb, wb, wb, MBSize, earlyExit)
	}
}

// refWindow returns the samples the taps of a macroblock at half-pel origin
// (hx, hy) read — columns hx>>1 … +16 and rows hy>>1 … +16, the last of each
// only on its odd axis — from the first of them, and their row stride: a
// window into ref.Pix when all lie inside ref, else a border-clamped copy
// (imgx.CopyBlock) in patch, which callers keep on the stack.
func refWindow(ref *imgx.Plane, hx, hy int, patch *refPatch) ([]uint8, int) {
	ix, iy, ox, oy := hx>>1, hy>>1, hx&1, hy&1
	if ix >= 0 && iy >= 0 && ix+MBSize+ox <= ref.W && iy+MBSize+oy <= ref.H {
		return ref.Pix[iy*ref.W+ix:], ref.W
	}
	pp := imgx.Plane{W: patchStride, H: MBSize + 1, Pix: patch[:]}
	imgx.CopyBlock(&pp, 0, 0, ref, ix, iy, MBSize+ox, MBSize+oy)
	return patch[:], patchStride
}

// refPatch is 17 rows of 17 samples, patchStride apart: the padding keeps
// the kernels' loads from its last row inside the array.
type refPatch [(MBSize + 1) * patchStride]uint8

const patchStride = 24

// halfPelMargin is the minimum SAD improvement a half-pel candidate must
// deliver over the integer-pel incumbent. Bilinear interpolation low-passes
// the reference, which on noise-dominated content lowers SAD by roughly
// 10-15%% for ANY offset; the margin therefore also scales with the
// incumbent SAD (see refineHalf), otherwise night footage would report
// spurious half-pel motion on every macroblock.
const halfPelMargin = 48

// refineHalf polishes an integer-pel vector (given in half-pel units, even
// coordinates) by evaluating the 8 half-pel neighbors. Returns the best
// vector in half-pel units and its SAD.
func refineHalf(cur, ref *imgx.Plane, mbx, mby int, mv MV, bestSAD int) (MV, int) {
	base := mv
	margin := halfPelMargin
	if adaptive := bestSAD >> 2; adaptive > margin {
		margin = adaptive
	}
	threshold := bestSAD - margin
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			cand := MV{base.X + int16(dx), base.Y + int16(dy)}
			s := sadHalf(cur, mbx, mby, ref, mbx*2+int(cand.X), mby*2+int(cand.Y), threshold)
			if s < threshold {
				threshold = s
				bestSAD = s
				mv = cand
			}
		}
	}
	return mv, bestSAD
}
