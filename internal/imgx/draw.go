package imgx

// CopyBlock copies a w×h block from src at (sx, sy) into dst at (dx, dy).
// Source reads use border clamping (codec motion compensation semantics);
// destination writes outside dst are dropped. It works a row at a time: the
// source row index is clamped once, the in-frame span is copied and the edge
// sample is replicated into the columns that lie outside src.
func CopyBlock(dst *Plane, dx, dy int, src *Plane, sx, sy, w, h int) {
	// Clip to dst's columns: x runs over [x0, x1) of the block.
	x0, x1 := max(0, -dx), min(w, dst.W-dx)
	if x0 >= x1 {
		return
	}
	// [c0, c1) of the block reads inside src; left of it the first sample of
	// the source row stands in, right of it the last.
	c0 := min(max(x0, -sx), x1)
	c1 := max(min(x1, src.W-sx), c0)
	for y := 0; y < h; y++ {
		ty := dy + y
		if ty < 0 || ty >= dst.H {
			continue
		}
		srow := src.Row(min(max(sy+y, 0), src.H-1))
		drow := dst.Pix[ty*dst.W+dx+x0 : ty*dst.W+dx+x1]
		for i := range drow[:c0-x0] {
			drow[i] = srow[0]
		}
		if c0 < c1 {
			copy(drow[c0-x0:c1-x0], srow[sx+c0:])
		}
		for i := range drow[c1-x0:] {
			drow[c1-x0+i] = srow[src.W-1]
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

// SAD returns the sum of absolute differences between the w×h block at
// (ax, ay) in a and the block at (bx, by) in b, with border clamping on b
// only (a's block must be fully inside; the codec guarantees this). The
// earlyExit threshold is checked after each completed row: the call aborts
// and returns a value >= earlyExit as soon as the row-granular partial sum
// crosses it, the standard motion-search optimization.
//
// Macroblock-wide blocks — the hot shape of every motion search — go
// through the SAD16 row kernel; one whose window crosses b's edge runs it
// over a border-clamped copy. 8-wide groups run through sadRow8.
func SAD(a *Plane, ax, ay int, b *Plane, bx, by, w, h, earlyExit int) int {
	sum := 0
	fastB := bx >= 0 && by >= 0 && bx+w <= b.W && by+h <= b.H
	if w == 16 && (fastB || h <= 16) {
		pa := a.Pix[ay*a.W+ax:]
		if fastB {
			return SAD16(pa, a.W, b.Pix[by*b.W+bx:], b.W, h, earlyExit)
		}
		var patch [16 * 16]uint8
		pp := Plane{W: 16, H: 16, Pix: patch[:]}
		CopyBlock(&pp, 0, 0, b, bx, by, 16, h)
		return SAD16(pa, a.W, patch[:], 16, h, earlyExit)
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
