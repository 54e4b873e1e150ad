package codec

import "dive/internal/imgx"

// Half-pel motion support. When Config.SubPel is set, motion vectors are
// expressed in half-pixel units (the paper's x264 baseline searches at
// sub-pixel precision) and motion compensation samples the reference plane
// bilinearly. Sub-pixel vectors roughly halve the quantization noise the
// geometric stages (rotation estimation, Eq. 8 normalization) see.

// sampleHalf reads the reference plane at half-pel position (hx, hy), i.e.
// pixel position (hx/2, hy/2), with bilinear interpolation for odd
// coordinates and border clamping.
func sampleHalf(p *imgx.Plane, hx, hy int) uint8 {
	ix, iy := hx>>1, hy>>1
	oddX, oddY := hx&1 == 1, hy&1 == 1
	switch {
	case !oddX && !oddY:
		return p.At(ix, iy)
	case oddX && !oddY:
		return uint8((int(p.At(ix, iy)) + int(p.At(ix+1, iy)) + 1) / 2)
	case !oddX && oddY:
		return uint8((int(p.At(ix, iy)) + int(p.At(ix, iy+1)) + 1) / 2)
	default:
		return uint8((int(p.At(ix, iy)) + int(p.At(ix+1, iy)) +
			int(p.At(ix, iy+1)) + int(p.At(ix+1, iy+1)) + 2) / 4)
	}
}

// sadHalf computes the SAD between the macroblock at (ax, ay) in a and the
// half-pel displaced macroblock at half-pel origin (hbx, hby) in b, with
// early exit (checked after each completed row, matching imgx.SAD).
func sadHalf(a *imgx.Plane, ax, ay int, b *imgx.Plane, hbx, hby, earlyExit int) int {
	// Even coordinates are plain integer SAD.
	if hbx&1 == 0 && hby&1 == 0 {
		return imgx.SAD(a, ax, ay, b, hbx>>1, hby>>1, MBSize, MBSize, earlyExit)
	}
	// Odd phases go through the imgx row kernels over the samples the
	// bilinear taps touch: columns ix0..ix0+16 and rows iy0..iy0+16, the last
	// of each only on its odd axis. When some lie outside b, a border-clamped
	// copy of them stands in.
	ix0, iy0 := hbx>>1, hby>>1
	ox, oy := hbx&1, hby&1
	pb, wb := b.Pix, b.W
	if ix0 >= 0 && iy0 >= 0 && ix0+MBSize+ox <= b.W && iy0+MBSize+oy <= b.H {
		pb = pb[iy0*wb+ix0:]
	} else {
		var patch [(MBSize + 1) * patchStride]uint8
		pp := imgx.Plane{W: patchStride, H: MBSize + 1, Pix: patch[:]}
		imgx.CopyBlock(&pp, 0, 0, b, ix0, iy0, MBSize+ox, MBSize+oy)
		pb, wb = patch[:], patchStride
	}
	return sadHalf16(a.Pix[ay*a.W+ax:], a.W, pb, wb, ox == 1, oy == 1, earlyExit)
}

// patchStride is the row stride of sadHalf's border patch: 17 samples a row,
// padded so the kernels' loads from its last row stay inside the array.
const patchStride = 24

// sadHalf16 is sadHalf on an odd phase with every tap in bounds: pa and pb
// start at the blocks' first samples, wa and wb are the row strides. Each
// phase is one imgx row kernel.
func sadHalf16(pa []uint8, wa int, pb []uint8, wb int, oddX, oddY bool, earlyExit int) int {
	switch {
	case oddX && oddY:
		return imgx.SAD16Avg4(pa, wa, pb, wb, MBSize, earlyExit)
	case oddX:
		return imgx.SAD16Avg2(pa, wa, pb, wb, 1, MBSize, earlyExit)
	default:
		return imgx.SAD16Avg2(pa, wa, pb, wb, wb, MBSize, earlyExit)
	}
}

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
