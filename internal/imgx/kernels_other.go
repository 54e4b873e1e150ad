//go:build !amd64

package imgx

// Without an assembly implementation the row kernels are their Go bodies.

func sad16(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	return sad16Go(pa, wa, pb, wb, h, earlyExit)
}

func sad16avg2(pa []uint8, wa int, pb []uint8, wb, off, h, earlyExit int) int {
	return sad16avg2Go(pa, wa, pb, wb, off, h, earlyExit)
}

func sad16avg4(pa []uint8, wa int, pb []uint8, wb, h, earlyExit int) int {
	return sad16avg4Go(pa, wa, pb, wb, h, earlyExit)
}

func ssd(a, b []uint8) uint64 { return ssdGo(a, b) }
