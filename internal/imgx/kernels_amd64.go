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

// ssd proves b as long as a itself: it has no exported wrapper.
func ssd(a, b []uint8) uint64 {
	b = b[:len(a)]
	if len(a) == 0 {
		return 0
	}
	return ssdSSE2(&a[0], &b[0], len(a))
}

//go:noescape
func sad16SSE2(pa *uint8, wa int, pb *uint8, wb, h, earlyExit int) int

//go:noescape
func sad16avg2SSE2(pa *uint8, wa int, pb *uint8, wb, off, h, earlyExit int) int

//go:noescape
func sad16avg4SSE2(pa *uint8, wa int, pb *uint8, wb, h, earlyExit int) int

//go:noescape
func ssdSSE2(a, b *uint8, n int) uint64
