//go:build !amd64

package codec

// Without an assembly implementation the intra mode decision scores its
// modes with the Go body.

func intraSAD(cur []uint8, stride int, top, left *[blockSize]uint8, dc uint8) (sadDC, sadV, sadH int) {
	return intraSADGo(cur, stride, top, left, dc)
}
