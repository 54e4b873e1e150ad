//go:build !amd64

package codec

// Without an assembly implementation the block transforms are their Go bodies.

func fdctResidual(cur []uint8, cstride int, pred []uint8, pstride int, coef *[blockSize * blockSize]int32) uint32 {
	return fdctResidualGo(cur, cstride, pred, pstride, coef)
}

func idctAdd(dst []uint8, dstride int, pred []uint8, pstride int, levels *[blockSize * blockSize]int32, qp int) {
	idctAddGo(dst, dstride, pred, pstride, levels, qp)
}
