package codec

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
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
