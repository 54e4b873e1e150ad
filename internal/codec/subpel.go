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

// sadHalf computes the SAD between the w×h block at (ax, ay) in a and the
// half-pel displaced block at half-pel origin (hbx, hby) in b, with early
// exit (checked after each completed row, matching imgx.SAD).
func sadHalf(a *imgx.Plane, ax, ay int, b *imgx.Plane, hbx, hby, w, h, earlyExit int) int {
	// Fast path: even coordinates are plain integer SAD.
	if hbx&1 == 0 && hby&1 == 0 {
		return imgx.SAD(a, ax, ay, b, hbx>>1, hby>>1, w, h, earlyExit)
	}
	ix0, iy0 := hbx>>1, hby>>1
	// Interior fast path: when every integer sample the bilinear taps touch
	// (columns ix0..ix0+w, rows iy0..iy0+h — conservatively including the +1
	// tap even on the even axis) is inside b, interpolation reads row slices
	// directly instead of going through the clamping sampleHalf, with the
	// identical rounding arithmetic and branchless absolute values.
	if ix0 >= 0 && iy0 >= 0 && ix0+w < b.W && iy0+h < b.H {
		oddX, oddY := hbx&1 == 1, hby&1 == 1
		sum := 0
		for y := 0; y < h; y++ {
			ra := a.Pix[(ay+y)*a.W+ax : (ay+y)*a.W+ax+w]
			iy := iy0 + y
			r0 := b.Pix[iy*b.W+ix0 : iy*b.W+ix0+w+1]
			switch {
			case oddX && !oddY:
				for x := 0; x < w; x++ {
					d := int(ra[x]) - (int(r0[x])+int(r0[x+1])+1)/2
					m := d >> 63
					sum += (d + m) ^ m
				}
			case !oddX && oddY:
				r1 := b.Pix[(iy+1)*b.W+ix0 : (iy+1)*b.W+ix0+w+1]
				for x := 0; x < w; x++ {
					d := int(ra[x]) - (int(r0[x])+int(r1[x])+1)/2
					m := d >> 63
					sum += (d + m) ^ m
				}
			default: // odd in both axes
				r1 := b.Pix[(iy+1)*b.W+ix0 : (iy+1)*b.W+ix0+w+1]
				for x := 0; x < w; x++ {
					d := int(ra[x]) - (int(r0[x])+int(r0[x+1])+int(r1[x])+int(r1[x+1])+2)/4
					m := d >> 63
					sum += (d + m) ^ m
				}
			}
			if sum >= earlyExit {
				return sum
			}
		}
		return sum
	}
	sum := 0
	for y := 0; y < h; y++ {
		ra := a.Pix[(ay+y)*a.W+ax : (ay+y)*a.W+ax+w]
		for x := 0; x < w; x++ {
			d := int(ra[x]) - int(sampleHalf(b, hbx+2*x, hby+2*y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum >= earlyExit {
			return sum
		}
	}
	return sum
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
			s := sadHalf(cur, mbx, mby, ref, mbx*2+int(cand.X), mby*2+int(cand.Y), MBSize, MBSize, threshold)
			if s < threshold {
				threshold = s
				bestSAD = s
				mv = cand
			}
		}
	}
	return mv, bestSAD
}
