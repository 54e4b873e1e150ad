package imgx

// The row kernels of kernels.go in SSE2 (kernels_amd64.s). SSE2 is part of
// the amd64 baseline, so there is nothing to detect at run time. The stubs
// take the blocks' first samples; the exported wrappers have already proved
// every byte the kernel touches in bounds.

func sad16(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	return sad16SSE2(&pa[0], wa, &pb[0], wb, h, earlyExit)
}

func sad16avg2(pa []uint8, wa int, pb []uint8, wb, off, h, earlyExit int) int {
	return sad16avg2SSE2(&pa[0], wa, &pb[0], wb, off, h, earlyExit)
}

func sad16avg4(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	return sad16avg4SSE2(&pa[0], wa, &pb[0], wb, h, earlyExit)
}

//go:noescape
func sad16SSE2(pa *uint8, wa int, pb *uint8, wb, h, earlyExit int) int

//go:noescape
func sad16avg2SSE2(pa *uint8, wa int, pb *uint8, wb, off, h, earlyExit int) int

//go:noescape
func sad16avg4SSE2(pa *uint8, wa int, pb *uint8, wb, h, earlyExit int) int
