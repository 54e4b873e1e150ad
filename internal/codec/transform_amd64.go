package codec

// fdctResidualGo and idctAddGo in SSE2 (transform_amd64.s). SSE2 is part of
// the amd64 baseline, so there is nothing to detect at run time. The kernels
// touch bytes s·y … s·y + 7 of rows y = 0 … 7 of each window and nothing else,
// so each wrapper first indexes the last of those bytes: a short slice panics
// here, as the Go body's indexing would, and no pointer reaches the assembly
// unchecked.

func fdctResidual(cur []uint8, cstride int, pred []uint8, pstride int, coef *[blockSize * blockSize]int32) uint32 {
	checkWindow(cur, cstride)
	checkWindow(pred, pstride)
	return fdctSSE2(&cur[0], cstride, &pred[0], pstride, coef)
}

// idctAdd runs the Go body on the blocks the kernel declines — it reports
// false having stored nothing — a level whose dequantized value could leave
// int16, or a first-pass output at int16's edge.
func idctAdd(dst []uint8, dstride int, pred []uint8, pstride int, levels *[blockSize * blockSize]int32, qp int) {
	checkWindow(dst, dstride)
	checkWindow(pred, pstride)
	q := int(qstepFix[qp])
	if !idctAddSSE2(levels, q, 32767/q, &pred[0], pstride, &dst[0], dstride) {
		idctAddGo(dst, dstride, pred, pstride, levels, qp)
	}
}

// checkWindow panics unless b holds eight rows of eight bytes, stride ≥ 8
// bytes apart.
func checkWindow(b []uint8, stride int) {
	if stride < blockSize {
		panic("codec: block rows closer than a row")
	}
	_ = b[7*stride+blockSize-1]
}

//go:noescape
func fdctSSE2(cur *uint8, cstride int, pred *uint8, pstride int, coef *[blockSize * blockSize]int32) (or uint32)

//go:noescape
func idctAddSSE2(levels *[blockSize * blockSize]int32, q, maxLevel int, pred *uint8, pstride int, dst *uint8, dstride int) (ok bool)
