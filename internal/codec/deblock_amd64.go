package codec

// filterSpanGo in SSE2 (deblock_amd64.s). SSE2 is part of the amd64
// baseline, so there is nothing to detect at run time. A horizontal edge
// (along = 1) is four rows of 16 bytes, p1 … q1; a vertical edge
// (across = 1) is 16 rows of four bytes. The wrapper indexes the first and
// the last byte the span touches, so a short slice panics here, as the Go
// body's indexing would, and no pointer reaches the assembly unchecked.

func filterSpan(pix []uint8, o, across, along, alpha, beta int) {
	_ = pix[o+(MBSize-1)*along+across]
	p := &pix[o-2*across]
	switch {
	case along == 1 && across >= MBSize:
		deblockRowsSSE2(p, across, alpha, beta)
	case across == 1 && along >= 4:
		deblockColsSSE2(p, along, alpha, beta)
	default:
		panic("codec: deblocking span positions overlap")
	}
}

// deblockRowsSSE2 filters the horizontal edge whose p1 row starts at p, the
// rows stride bytes apart.
//
//go:noescape
func deblockRowsSSE2(p *uint8, stride, alpha, beta int)

// deblockColsSSE2 filters the vertical edge whose first position's p1 is at
// p, the positions stride bytes apart.
//
//go:noescape
func deblockColsSSE2(p *uint8, stride, alpha, beta int)
