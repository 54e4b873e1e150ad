//go:build !amd64

package codec

// Without an assembly implementation the deblocking filter is its Go body.

func filterSpan(pix []uint8, o, across, along, alpha, beta int) {
	filterSpanGo(pix, o, across, along, alpha, beta)
}
