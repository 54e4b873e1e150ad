//go:build !race

package edge

import (
	"io"
	"testing"
)

// TestWritersAllocateNothing: every writer encodes into a pooled envelope
// and keeps its message off the heap, on each golden message and on the
// ops of BenchmarkWireResultWrite and BenchmarkWriteFrame. (Not under
// -race, whose sync.Pool drops items at random.)
func TestWritersAllocateNothing(t *testing.T) {
	for _, m := range goldenMessages {
		m.write(io.Discard)
		allocFree(t, m.name, func() { m.write(io.Discard) })
	}
	allocFree(t, "bench WireResultWrite", resultWriteOp(t))
	allocFree(t, "bench WriteFrame", writeFrameOp(t))
}

// TestServerFrameAllocatesNothing holds BenchmarkServerFrame's op — step,
// decode, detect, count and reply — at 0 allocations.
func TestServerFrameAllocatesNothing(t *testing.T) {
	allocFree(t, "serveFrame", serverFrameOp(t))
}
