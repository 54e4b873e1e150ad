package imgx

// CopyBlock copies a w×h block from src at (sx, sy) into dst at (dx, dy).
// Source reads use border clamping (codec motion compensation semantics);
// destination writes outside dst are dropped.
func CopyBlock(dst *Plane, dx, dy int, src *Plane, sx, sy, w, h int) {
	for y := 0; y < h; y++ {
		ty := dy + y
		if ty < 0 || ty >= dst.H {
			continue
		}
		for x := 0; x < w; x++ {
			tx := dx + x
			if tx < 0 || tx >= dst.W {
				continue
			}
			dst.Pix[ty*dst.W+tx] = src.At(sx+x, sy+y)
		}
	}
}

// FillRect fills rect (clipped) with value v.
func FillRect(p *Plane, rect Rect, v uint8) {
	r := rect.ClipTo(p.W, p.H)
	for y := r.MinY; y < r.MaxY; y++ {
		row := p.Row(y)
		for x := r.MinX; x < r.MaxX; x++ {
			row[x] = v
		}
	}
}

// DrawRectOutline draws a 1-pixel rectangle outline (clipped) with value v;
// used by the example programs to visualize detections.
func DrawRectOutline(p *Plane, rect Rect, v uint8) {
	r := rect.ClipTo(p.W, p.H)
	if r.Empty() {
		return
	}
	for x := r.MinX; x < r.MaxX; x++ {
		p.Set(x, r.MinY, v)
		p.Set(x, r.MaxY-1, v)
	}
	for y := r.MinY; y < r.MaxY; y++ {
		p.Set(r.MinX, y, v)
		p.Set(r.MaxX-1, y, v)
	}
}

// Downsample2x returns a half-resolution plane by 2×2 box averaging. Odd
// trailing rows/columns are dropped.
func Downsample2x(p *Plane) *Plane {
	w, h := p.W/2, p.H/2
	if w == 0 || h == 0 {
		return p.Clone()
	}
	out := NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := int(p.Pix[(2*y)*p.W+2*x]) +
				int(p.Pix[(2*y)*p.W+2*x+1]) +
				int(p.Pix[(2*y+1)*p.W+2*x]) +
				int(p.Pix[(2*y+1)*p.W+2*x+1])
			out.Pix[y*w+x] = uint8((s + 2) / 4)
		}
	}
	return out
}

// SAD returns the sum of absolute differences between the w×h block at
// (ax, ay) in a and the block at (bx, by) in b, with border clamping on b
// only (a's block must be fully inside; the codec guarantees this). The
// earlyExit threshold is checked after each completed row: the call aborts
// and returns a value >= earlyExit as soon as the row-granular partial sum
// crosses it, the standard motion-search optimization.
//
// Interior rows run through sadRow16/sadRow8: fixed-width groups of
// branchless uint16 lane accumulation over array pointers, which eliminates
// bounds checks and per-pixel compare/branch pairs — the hot shape of every
// motion search (16-wide macroblock rows) stays in one straight-line kernel.
func SAD(a *Plane, ax, ay int, b *Plane, bx, by, w, h, earlyExit int) int {
	sum := 0
	fastB := bx >= 0 && by >= 0 && bx+w <= b.W && by+h <= b.H
	if fastB && w == 16 {
		for y := 0; y < h; y++ {
			oa := (ay+y)*a.W + ax
			ob := (by+y)*b.W + bx
			sum += int(sadRow16((*[16]uint8)(a.Pix[oa:oa+16]), (*[16]uint8)(b.Pix[ob:ob+16])))
			if sum >= earlyExit {
				return sum
			}
		}
		return sum
	}
	if fastB && w == 8 {
		for y := 0; y < h; y++ {
			oa := (ay+y)*a.W + ax
			ob := (by+y)*b.W + bx
			sum += int(sadRow8((*[8]uint8)(a.Pix[oa:oa+8]), (*[8]uint8)(b.Pix[ob:ob+8])))
			if sum >= earlyExit {
				return sum
			}
		}
		return sum
	}
	for y := 0; y < h; y++ {
		ra := a.Pix[(ay+y)*a.W+ax : (ay+y)*a.W+ax+w]
		if fastB {
			rb := b.Pix[(by+y)*b.W+bx : (by+y)*b.W+bx+w]
			x := 0
			for ; x+8 <= w; x += 8 {
				sum += int(sadRow8((*[8]uint8)(ra[x:x+8]), (*[8]uint8)(rb[x:x+8])))
			}
			for ; x < w; x++ {
				d := int16(ra[x]) - int16(rb[x])
				m := d >> 15
				sum += int((d + m) ^ m)
			}
		} else {
			for x := 0; x < w; x++ {
				d := int(ra[x]) - int(b.At(bx+x, by+y))
				if d < 0 {
					d = -d
				}
				sum += d
			}
		}
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
// (SwarSAD8). Array-pointer parameters make the 8-byte loads provably in
// bounds, so the kernel compiles to two loads plus straight-line ALU ops.
func sadRow8(a, b *[8]uint8) uint16 {
	x := uint64(a[0]) | uint64(a[1])<<8 | uint64(a[2])<<16 | uint64(a[3])<<24 |
		uint64(a[4])<<32 | uint64(a[5])<<40 | uint64(a[6])<<48 | uint64(a[7])<<56
	y := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return SwarSAD8(x, y)
}

// hi8 masks the high bit of each byte lane in a uint64.
const hi8 = 0x8080808080808080

// SwarSAD8 computes the sum of absolute per-byte differences of two packed
// 8-byte words without branches or lane splits (a scalar psadbw). Exported
// for the codec's half-pel kernel, which averages words before differencing
// them:
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
func SwarSAD8(x, y uint64) uint16 {
	d := ((x | hi8) - (y &^ hi8)) ^ ((x ^ ^y) & hi8)
	m := (((^x & y) | ((^x | y) & d)) & hi8) >> 7
	abs := (d ^ (m * 0xFF)) + m
	const lo16 = 0x00FF00FF00FF00FF
	s := (abs & lo16) + ((abs >> 8) & lo16)
	return uint16((s * 0x0001000100010001) >> 48)
}
