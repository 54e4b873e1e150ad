package codec

// quantizeBlockGo in SSE2 (quantize_amd64.s). SSE2 is part of the amd64
// baseline, so there is nothing to detect at run time; the arrays are whole
// blocks, so there is nothing to bounds-check but qp.

func quantizeBlock(coef *[blockSize * blockSize]int32, qp int, levels *[blockSize * blockSize]int32) (sig uint64, lenSum int) {
	return quantizeBlockSSE2(coef, levels, quantRecip[qp])
}

//go:noescape
func quantizeBlockSSE2(coef, levels *[blockSize * blockSize]int32, recip int64) (sig uint64, lenSum int)
