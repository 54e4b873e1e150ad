//go:build !race

package edge

import (
	"io"
	"testing"
)

// TestWritersAllocateNothing: every writer encodes into a pooled envelope
// and keeps its message off the heap. (Not under -race, whose sync.Pool
// drops items at random.)
func TestWritersAllocateNothing(t *testing.T) {
	for _, m := range goldenMessages {
		m.write(io.Discard)
		if n := testing.AllocsPerRun(200, func() { m.write(io.Discard) }); n != 0 {
			t.Errorf("%s: %v allocs per write, want 0", m.name, n)
		}
	}
}
