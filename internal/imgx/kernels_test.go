package imgx

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	// interp is Interp16 on this phase.
	interp func(dst []uint8, wd int, pb []uint8, wb, off, h int)
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
		interp: func(dst []uint8, wd int, pb []uint8, wb, off, h int) {
			Interp16(dst, wd, pb, wb, false, false, h)
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
		interp: func(dst []uint8, wd int, pb []uint8, wb, off, h int) {
			Interp16(dst, wd, pb, wb, off == 1, off != 1, h)
		},
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
		interp: func(dst []uint8, wd int, pb []uint8, wb, off, h int) {
			Interp16(dst, wd, pb, wb, true, true, h)
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

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// TestRowKernelsRejectShortSlices: a slice one byte short of what the
// kernel touches panics in the wrapper instead of returning a sum, as does
// a negative stride; the assembly never sees either.
func TestRowKernelsRejectShortSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := range phases {
		ph := &phases[i]
		for _, h := range []int{1, 7, 16} {
			wa, wb := 16+rng.Intn(55), 16+rng.Intn(55)
			for _, off := range ph.offs(wb) {
				pa := randBytes(rng, blockLen(wa, h))
				pb := randBytes(rng, ph.need(wb, off, h))
				ph.checkSAD(t, pa, wa, pb, wb, off, h, math.MaxInt32) // exact lengths are accepted
				mustPanic(t, ph.name+" short a", func() { ph.sad(pa[:len(pa)-1], wa, pb, wb, off, h, math.MaxInt32) })
				mustPanic(t, ph.name+" short b", func() { ph.sad(pa, wa, pb[:len(pb)-1], wb, off, h, math.MaxInt32) })
				mustPanic(t, ph.name+" negative stride", func() { ph.sad(pa, wa, pb, -wb, off, h, math.MaxInt32) })
			}
		}
	}
}

// TestInterp16 runs the store kernel on every phase over random blocks of
// every height 0…16 at strides 16…70, source and destination each cut to
// exactly the bytes it may touch: every stored sample is the phase's
// per-sample reference, every byte between the destination's rows keeps its
// value, and a slice one byte short or a negative stride panics.
func TestInterp16(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := range phases {
		ph := &phases[i]
		for trial := 0; trial < 400; trial++ {
			h := trial % 17
			wd, wb := 16+rng.Intn(55), 16+rng.Intn(55)
			for _, off := range ph.offs(wb) {
				pb := randBytes(rng, max(0, ph.need(wb, off, h)))
				dst := randBytes(rng, blockLen(wd, h))
				if h == 0 {
					pb = nil
				}
				was := slices.Clone(dst)
				ph.interp(dst, wd, pb, wb, off, h)
				for j, v := range dst {
					y, x := j/wd, j%wd
					want := was[j]
					if x < 16 {
						want = uint8(ph.ref(pb, wb, off, y*wb+x))
					}
					if v != want {
						t.Fatalf("%s (wd=%d wb=%d off=%d h=%d): byte (%d,%d) = %d, want %d", ph.name, wd, wb, off, h, x, y, v, want)
					}
				}
				if h == 0 {
					continue
				}
				mustPanic(t, ph.name+" short dst", func() { ph.interp(dst[:len(dst)-1], wd, pb, wb, off, h) })
				mustPanic(t, ph.name+" short b", func() { ph.interp(dst, wd, pb[:len(pb)-1], wb, off, h) })
				mustPanic(t, ph.name+" negative stride", func() { ph.interp(dst, -wd, pb, wb, off, h) })
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

// ssdPerSample is the squared-error sum by definition, for holding ssdGo to.
func ssdPerSample(a, b []uint8) uint64 {
	var s uint64
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		s += uint64(d * d)
	}
	return s
}

// checkSSD holds the Go body and the dispatched kernel (the assembly on
// amd64) to the per-sample sum on one pair of rows.
func checkSSD(t *testing.T, a, b []uint8) {
	t.Helper()
	want := ssdPerSample(a, b)
	if got := ssdGo(a, b); got != want {
		t.Fatalf("ssd Go body (n=%d) = %d, per-sample = %d", len(a), got, want)
	}
	if got := ssd(a, b); got != want {
		t.Fatalf("ssd kernel (n=%d) = %d, per-sample = %d", len(a), got, want)
	}
}

// TestSSDMatchesGo runs the squared-error kernel over rows of every width
// 1…80 from every start alignment 0…15, each slice cut to exactly its width;
// over all-extreme rows, where every dword lane grows fastest, long enough
// to overflow one unless the dword sums are folded; and holds RegionMSE to
// a per-sample region loop on rectangles clipped at each border of a
// 400×128 plane (the KITTI clip size) and of an odd-sized one.
func TestSSDMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	back := randBytes(rng, 16+80)
	other := randBytes(rng, 16+80)
	for n := 0; n <= 80; n++ {
		for al := 0; al < 16; al++ {
			checkSSD(t, back[al:al+n:al+n], other[15-al:15-al+n:15-al+n])
		}
	}
	// 20480 blocks of 16 samples at 255² each: four times what a dword lane
	// holds, if the kernel did not fold every 65536 samples.
	zero, full := make([]uint8, 5*65536+24+7), bytes.Repeat([]byte{255}, 5*65536+24+7)
	for _, n := range []int{16, 65536 - 1, 65536, 65536 + 16 + 8 + 7, len(zero)} {
		checkSSD(t, zero[:n], full[:n])
		checkSSD(t, full[:n], zero[:n])
	}

	regionRef := func(a, b *Plane, r Rect) float64 {
		r = r.ClipTo(a.W, a.H)
		if r.Empty() {
			return 0
		}
		var s uint64
		for y := r.MinY; y < r.MaxY; y++ {
			s += ssdPerSample(a.Pix[y*a.W+r.MinX:y*a.W+r.MaxX], b.Pix[y*b.W+r.MinX:y*b.W+r.MaxX])
		}
		return float64(s) / float64(r.Area())
	}
	for _, size := range [][2]int{{400, 128}, {37, 23}} {
		w, h := size[0], size[1]
		a, b := randomPlane(rng, w, h), randomPlane(rng, w, h)
		a.Pix, b.Pix = a.Pix[:w*h:w*h], b.Pix[:w*h:w*h]
		rects := []Rect{{0, 0, w, h}, {-9, -9, w + 9, h + 9}, {w - 1, h - 1, w + 5, h + 5}, {3, 3, 3, 9}}
		for trial := 0; trial < 200; trial++ {
			bw, bh := 1+rng.Intn(80), 1+rng.Intn(40)
			x, y := rng.Intn(w+bw)-bw, rng.Intn(h+bh)-bh
			switch trial % 5 { // flush against a border, or past it
			case 1:
				x = -rng.Intn(bw)
			case 2:
				x = w - bw + rng.Intn(bw)
			case 3:
				y = -rng.Intn(bh)
			case 4:
				y = h - bh + rng.Intn(bh)
			}
			rects = append(rects, NewRect(x, y, bw, bh))
		}
		for _, r := range rects {
			if got, want := RegionMSE(a, b, r), regionRef(a, b, r); got != want {
				t.Fatalf("%dx%d RegionMSE(%v) = %v, per-sample = %v", w, h, r, got, want)
			}
		}
		if got, want := MSE(a, b), regionRef(a, b, Rect{0, 0, w, h}); got != want {
			t.Fatalf("%dx%d MSE = %v, per-sample = %v", w, h, got, want)
		}
	}
}

// FuzzSSD cuts two rows out of the fuzzer's bytes, the second after an
// offset that varies its alignment, and holds the squared-error kernel to
// the per-sample sum.
func FuzzSSD(f *testing.F) {
	rng := rand.New(rand.NewSource(49))
	f.Add(randBytes(rng, 200), uint8(80), uint8(3))
	f.Add(randBytes(rng, 60), uint8(23), uint8(0))
	f.Add(bytes.Repeat([]byte{255, 0}, 100), uint8(99), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n, skip uint8) {
		na, off := int(n), int(skip%16)
		if len(data) < 2*na+off {
			t.Skip()
		}
		checkSSD(t, data[:na:na], data[na+off:2*na+off:2*na+off])
	})
}

// mseRows are the squared-error rows over msePlanes: the frame scored
// whole, as the detector's false-positive model does once a frame, and one
// object box, as it does per object.
var mseRows = []struct {
	name string
	r    Rect
}{{"frame", Rect{0, 0, 400, 128}}, {"box", NewRect(131, 47, 58, 36)}}

// msePlanes returns the two 400×128 frames mseRows score.
func msePlanes() (*Plane, *Plane) {
	rng := rand.New(rand.NewSource(50))
	return randomPlane(rng, 400, 128), randomPlane(rng, 400, 128)
}

// BenchmarkRegionMSE times each of mseRows.
func BenchmarkRegionMSE(b *testing.B) {
	p, q := msePlanes()
	for _, bc := range mseRows {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(bc.r.Area()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchMSE += RegionMSE(p, q, bc.r)
			}
		})
	}
}

// allocFree fails t unless op allocates nothing once warm: over the 200
// calls testing.AllocsPerRun counts after its warm-up call, the
// whole-number mean count must be 0 and runtime.MemStats.TotalAlloc at most
// 64 B a call. The byte bound fails an allocation on only some calls, which
// the truncated count reads as 0. Its 64 B, over 200 calls, leave room for
// a rare allocation made outside op while it runs (one of 5.5 kB was seen
// over 32 calls of a warm encoder).
func allocFree(t *testing.T, name string, op func()) {
	t.Helper()
	const runs = 200
	var before, after runtime.MemStats
	warm := false
	allocs := testing.AllocsPerRun(runs, func() {
		op()
		if !warm {
			warm = true
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; allocs != 0 || b > 64 {
		t.Errorf("%s: %.0f allocs and %d B per op, want 0 and at most 64", name, allocs, b)
	}
}

// TestRegionMSEAllocatesNothing holds every row of BenchmarkRegionMSE at 0
// allocations.
func TestRegionMSEAllocatesNothing(t *testing.T) {
	p, q := msePlanes()
	for _, c := range mseRows {
		allocFree(t, "RegionMSE "+c.name, func() { benchMSE += RegionMSE(p, q, c.r) })
	}
}

var benchMSE float64
