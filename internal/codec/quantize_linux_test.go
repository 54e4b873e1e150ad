package codec

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"dive/internal/imgx"
)

// guardedBlocks returns two blocks in one writable page between two
// inaccessible ones: lo starts where the lower guard page ends, hi ends
// where the upper one begins.
func guardedBlocks(t *testing.T) (lo, hi *[blockSize * blockSize]int32) {
	t.Helper()
	page := syscall.Getpagesize()
	m, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(m) })
	for _, g := range [][]byte{m[:page], m[2*page:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	const n = int(unsafe.Sizeof([blockSize * blockSize]int32{}))
	return (*[blockSize * blockSize]int32)(unsafe.Pointer(&m[page])), (*[blockSize * blockSize]int32)(unsafe.Pointer(&m[2*page-n]))
}

// TestQuantizeBlockStaysInBounds runs the dispatched quantizer with coef and
// levels each flush against an inaccessible page, on both sides: a load or
// store that reaches one lane before or after the block faults here, where
// on the heap it would touch a neighbour.
func TestQuantizeBlockStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("quantizer touched memory outside its blocks: %v", r)
		}
	}()
	lo, hi := guardedBlocks(t)
	rng := rand.New(rand.NewSource(49))
	for _, qp := range []int{0, 2, 25, 51} {
		for _, pair := range [][2]*[blockSize * blockSize]int32{{lo, hi}, {hi, lo}} {
			coef, levels := pair[0], pair[1]
			for i := range coef {
				coef[i] = int32(rng.Intn(2*maxKernelCoef+1) - maxKernelCoef)
			}
			var want [blockSize * blockSize]int32
			wantSig, wantLen := quantizeBlockGo(coef, qp, &want)
			if sig, lenSum := quantizeBlock(coef, qp, levels); sig != wantSig || lenSum != wantLen || *levels != want {
				t.Fatalf("qp %d: guarded kernel differs from the Go body", qp)
			}
		}
	}
}

// TestTransformsStayInBounds runs both dispatched transforms with every
// window — current, prediction and destination rows at stride 8, so 64
// contiguous bytes — flush against an inaccessible page, once at the start
// of the writable page and once at its end.
func TestTransformsStayInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("transform touched memory outside its windows: %v", r)
		}
	}()
	lo, hi := guardedBlocks(t)
	const n = blockSize * blockSize
	first := unsafe.Slice((*uint8)(unsafe.Pointer(lo)), n)
	last := unsafe.Slice((*uint8)(unsafe.Add(unsafe.Pointer(hi), 3*n)), n)
	rng := rand.New(rand.NewSource(50))
	for _, w := range [][2][]uint8{{first, last}, {last, first}} {
		a, b := w[0], w[1]
		rng.Read(a)
		rng.Read(b)
		var coef, wantCoef [n]int32
		or, wantOr := fdctResidual(a, blockSize, b, blockSize, &coef), fdctResidualGo(a, blockSize, b, blockSize, &wantCoef)
		if coef != wantCoef || or != wantOr {
			t.Fatal("guarded forward kernel differs from the Go body")
		}
		var levels [n]int32
		for i := range levels {
			levels[i] = int32(rng.Intn(41) - 20)
		}
		want := make([]uint8, n)
		idctAddGo(want, blockSize, a, blockSize, &levels, 20)
		idctAdd(b, blockSize, a, blockSize, &levels, 20)
		if !bytes.Equal(b, want) {
			t.Fatal("guarded inverse kernel differs from the Go body")
		}
	}
}

// TestDeblockStaysInBounds runs the dispatched span filter on every
// spanShapes layout flush against an inaccessible page, once with its first
// p1 on the first byte of the writable page and once with its last q1 on the
// last, at thresholds that filter most positions.
func TestDeblockStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("deblocking touched memory outside its span: %v", r)
		}
	}()
	lo, hi := guardedBlocks(t)
	const n = int(unsafe.Sizeof(*lo))
	first := unsafe.Slice((*uint8)(unsafe.Pointer(lo)), n)
	last := unsafe.Slice((*uint8)(unsafe.Pointer(hi)), n)
	rng := rand.New(rand.NewSource(71))
	for _, sh := range spanShapes {
		for _, buf := range [][]uint8{first[:sh.n], last[n-sh.n:]} {
			for i := range buf {
				buf[i] = uint8(100 + rng.Intn(3))
			}
			want := bytes.Clone(buf)
			filterSpanGo(want, sh.o, sh.across, sh.along, 60, 24)
			filterSpan(buf, sh.o, sh.across, sh.along, 60, 24)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s stride %d: guarded kernel differs from the Go body", sh.name, sh.across*sh.along)
			}
		}
	}
}

// TestChooseIntraStaysInBounds runs chooseIntra on every block of a 16×16
// frame whose pixels are flush against an inaccessible page — the bottom-
// right block's last row ends on the writable page's last byte, the top-left
// block's first row begins on its first — with the reconstruction at the
// other end of the page, then with the two swapped.
func TestChooseIntraStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("intra mode decision touched memory outside its frame: %v", r)
		}
	}()
	lo, hi := guardedBlocks(t)
	const w = 2 * blockSize
	first := &imgx.Plane{W: w, H: w, Pix: unsafe.Slice((*uint8)(unsafe.Pointer(lo)), w*w)}
	last := &imgx.Plane{W: w, H: w, Pix: unsafe.Slice((*uint8)(unsafe.Add(unsafe.Pointer(hi), int(unsafe.Sizeof(*hi))-w*w)), w*w)}
	rng := rand.New(rand.NewSource(74))
	for _, p := range [][2]*imgx.Plane{{last, first}, {first, last}} {
		cur, recon := p[0], p[1]
		rng.Read(cur.Pix)
		rng.Read(recon.Pix)
		for py := 0; py < w; py += blockSize {
			for px := 0; px < w; px += blockSize {
				var pred [blockSize * blockSize]uint8
				mode := chooseIntra(cur, recon, px, py, &pred)
				e := loadIntraEdge(recon, px, py)
				if m := e.choose(intraSADGo(cur.Pix[py*w+px:], w, &e.top, &e.left, e.dc)); m != mode {
					t.Fatalf("block (%d,%d): guarded kernel chooses %d, the Go body %d", px, py, mode, m)
				}
			}
		}
	}
}
