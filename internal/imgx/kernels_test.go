package imgx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// phase is one interpolation of the reference block and the row kernel that
// differences against it: the per-sample definition (ref), the bytes of pb a
// 16×h block touches (need), the pure-Go body and the dispatched wrapper (the
// assembly on amd64).
type phase struct {
	name string
	offs func(wb int) []int
	need func(wb, off, h int) int
	// ref is the reference sample whose first tap is pb[i].
	ref        func(pb []uint8, wb, off, i int) int
	sadGo, sad func(pa []uint8, wa int, pb []uint8, wb, off, h, early int) int
}

var phases = []phase{
	{
		name: "sad16",
		offs: func(int) []int { return []int{0} },
		need: func(wb, off, h int) int { return (h-1)*wb + 16 },
		ref:  func(pb []uint8, wb, off, i int) int { return int(pb[i]) },
		sadGo: func(pa []uint8, wa int, pb []uint8, wb, off, h, early int) int {
			return sad16Go(pa, wa, pb, wb, h, early)
		},
		sad: func(pa []uint8, wa int, pb []uint8, wb, off, h, early int) int {
			return SAD16(pa, wa, pb, wb, h, early)
		},
	},
	{
		name: "avg2",
		offs: func(wb int) []int { return []int{1, wb} },
		need: func(wb, off, h int) int { return (h-1)*wb + 16 + off },
		ref: func(pb []uint8, wb, off, i int) int {
			return (int(pb[i]) + int(pb[i+off]) + 1) >> 1
		},
		sadGo: sad16avg2Go, sad: SAD16Avg2,
	},
	{
		name: "avg4",
		offs: func(int) []int { return []int{0} },
		need: func(wb, off, h int) int { return h*wb + 17 },
		ref: func(pb []uint8, wb, off, i int) int {
			return (int(pb[i]) + int(pb[i+1]) + int(pb[i+wb]) + int(pb[i+wb+1]) + 2) >> 2
		},
		sadGo: func(pa []uint8, wa int, pb []uint8, wb, off, h, early int) int {
			return sad16avg4Go(pa, wa, pb, wb, h, early)
		},
		sad: func(pa []uint8, wa int, pb []uint8, wb, off, h, early int) int {
			return SAD16Avg4(pa, wa, pb, wb, h, early)
		},
	},
}

// sadRef is the per-sample SAD against ph.ref with the row-granular exit.
func (ph *phase) sadRef(pa []uint8, wa int, pb []uint8, wb, off, h, early int) int {
	sum := 0
	for y := 0; y < h; y++ {
		for x := 0; x < 16; x++ {
			d := int(pa[y*wa+x]) - ph.ref(pb, wb, off, y*wb+x)
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum >= early {
			return sum
		}
	}
	return sum
}

// checkSAD holds the Go body and the dispatched kernel to the per-sample
// reference on one input: equal return values, so an early exit must stop
// on the same row with the same partial sum.
func (ph *phase) checkSAD(t *testing.T, pa []uint8, wa int, pb []uint8, wb, off, h, early int) {
	t.Helper()
	want := ph.sadRef(pa, wa, pb, wb, off, h, early)
	if got := ph.sadGo(pa, wa, pb, wb, off, h, early); got != want {
		t.Fatalf("%s Go body (wa=%d wb=%d off=%d h=%d early=%d) = %d, per-sample = %d", ph.name, wa, wb, off, h, early, got, want)
	}
	if got := ph.sad(pa, wa, pb, wb, off, h, early); got != want {
		t.Fatalf("%s kernel (wa=%d wb=%d off=%d h=%d early=%d) = %d, per-sample = %d", ph.name, wa, wb, off, h, early, got, want)
	}
}

// blockLen is the number of bytes from a 16×h block's first sample to its
// last at stride w.
func blockLen(w, h int) int {
	if h <= 0 {
		return 0
	}
	return (h-1)*w + 16
}

// randBytes returns n random samples in a slice with len == cap, so that
// nothing the allocator rounded up to hides behind it.
func randBytes(rng *rand.Rand, n int) []uint8 {
	b := make([]uint8, n)
	rng.Read(b)
	return b[:n:n]
}

// TestRowKernels runs every kernel over random blocks of every height
// 0…16 at strides 16…70, each slice cut to exactly the bytes the kernel may
// touch — the block flush against the end of its backing array.
func TestRowKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := range phases {
		ph := &phases[i]
		t.Run(ph.name, func(t *testing.T) {
			for trial := 0; trial < 400; trial++ {
				h := trial % 17
				wa, wb := 16+rng.Intn(55), 16+rng.Intn(55)
				for _, off := range ph.offs(wb) {
					pa := randBytes(rng, blockLen(wa, h))
					pb := randBytes(rng, max(0, ph.need(wb, off, h)))
					if h == 0 {
						pb = nil
					}
					if trial%5 == 0 {
						copy(pb, pa) // near-identical blocks: sums around the small thresholds
					}
					for _, early := range []int{0, 1, rng.Intn(16 * 16 * 128), math.MaxInt32} {
						ph.checkSAD(t, pa, wa, pb, wb, off, h, early)
					}
				}
			}
		})
	}
}

// TestRowKernelsAtPlaneEdges puts the blocks where a load one sample or one
// row too far would leave the slice: flush against the right and bottom
// edges of a plane whose backing array ends at its last sample, and at full
// height in the codec's 17-row border patch (stride 24).
func TestRowKernelsAtPlaneEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const w, hgt = 48, 40
	a := randBytes(rng, w*hgt)
	b := randBytes(rng, w*hgt)
	patch := randBytes(rng, 17*24)
	for i := range phases {
		ph := &phases[i]
		for _, off := range ph.offs(w) {
			for h := 1; h <= 16; h++ {
				// The furthest tap of the block is the plane's last sample,
				// which puts the block as far right and down as its taps allow.
				ob := len(b) - ph.need(w, off, h)
				ph.checkSAD(t, a[(hgt-h)*w+w-16:], w, b[ob:], w, off, h, math.MaxInt32)
			}
		}
		for _, off := range ph.offs(24) {
			ph.checkSAD(t, a, w, patch, 24, off, 16, math.MaxInt32)
		}
	}
}

// TestRowKernelsRejectShortSlices: a slice one byte short of what the
// kernel touches panics in the wrapper instead of returning a sum, as does
// a negative stride; the assembly never sees either.
func TestRowKernelsRejectShortSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	for i := range phases {
		ph := &phases[i]
		for _, h := range []int{1, 7, 16} {
			wa, wb := 16+rng.Intn(55), 16+rng.Intn(55)
			for _, off := range ph.offs(wb) {
				pa := randBytes(rng, blockLen(wa, h))
				pb := randBytes(rng, ph.need(wb, off, h))
				ph.checkSAD(t, pa, wa, pb, wb, off, h, math.MaxInt32) // exact lengths are accepted
				mustPanic(ph.name+" short a", func() { ph.sad(pa[:len(pa)-1], wa, pb, wb, off, h, math.MaxInt32) })
				mustPanic(ph.name+" short b", func() { ph.sad(pa, wa, pb[:len(pb)-1], wb, off, h, math.MaxInt32) })
				mustPanic(ph.name+" negative stride", func() { ph.sad(pa, wa, pb, -wb, off, h, math.MaxInt32) })
			}
		}
	}
}

// FuzzSAD16 cuts two blocks out of the fuzzer's bytes and holds the kernel
// the phase selects (plain, horizontal, vertical, diagonal) to the
// per-sample reference.
func FuzzSAD16(f *testing.F) {
	rng := rand.New(rand.NewSource(27))
	f.Add(randBytes(rng, 2048), uint8(0), uint8(0), uint8(0), uint8(16), int32(math.MaxInt32))
	f.Add(randBytes(rng, 2048), uint8(3), uint8(8), uint8(1), uint8(16), int32(700))
	f.Add(randBytes(rng, 2600), uint8(54), uint8(54), uint8(2), uint8(16), int32(1))
	f.Add(bytes.Repeat([]byte{255, 0}, 1500), uint8(1), uint8(0), uint8(3), uint8(15), int32(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(3), uint8(0), int32(-5))
	f.Fuzz(func(t *testing.T, data []byte, sa, sb, sel, rows uint8, early int32) {
		wa, wb, h := 16+int(sa)%55, 16+int(sb)%55, int(rows)%17
		ph, off := &phases[0], 0
		switch sel % 4 {
		case 1:
			ph, off = &phases[1], 1
		case 2:
			ph, off = &phases[1], wb
		case 3:
			ph = &phases[2]
		}
		na, nb := blockLen(wa, h), max(0, ph.need(wb, off, h))
		if h == 0 {
			nb = 0
		}
		if len(data) < na+nb {
			t.Skip()
		}
		pa, pb := data[:na:na], data[na:na+nb:na+nb]
		ph.checkSAD(t, pa, wa, pb, wb, off, h, int(early))
	})
}
