//go:build !amd64

package codec

// Without an assembly implementation the quantizer is its Go body.

func quantizeBlock(coef *[blockSize * blockSize]int32, qp int, levels *[blockSize * blockSize]int32) (sig uint64, lenSum int) {
	return quantizeBlockGo(coef, qp, levels)
}
