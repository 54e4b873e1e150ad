package codec

// intraSADGo in SSE2 (intra_amd64.s). SSE2 is part of the amd64 baseline, so
// there is nothing to detect at run time. The kernel reads bytes
// stride·y … stride·y + 7 of rows y = 0 … 7 of cur and the eight bytes of top
// and of left; the wrapper indexes the block's last byte first, so a short
// slice panics here, as the Go body's indexing would, and no pointer reaches
// the assembly unchecked.

func intraSAD(cur []uint8, stride int, top, left *[blockSize]uint8, dc uint8) (sadDC, sadV, sadH int) {
	checkWindow(cur, stride)
	return intraSADSSE2(&cur[0], stride, top, left, dc)
}

//go:noescape
func intraSADSSE2(cur *uint8, stride int, top, left *[blockSize]uint8, dc uint8) (sadDC, sadV, sadH int)
