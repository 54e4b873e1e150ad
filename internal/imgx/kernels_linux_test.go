package imgx

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
)

// guarded returns n writable bytes that end where an inaccessible page
// begins: reading or writing one byte past them faults.
func guarded(t *testing.T, n int) []uint8 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	m, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(m) })
	if err := syscall.Mprotect(m[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return m[size-n : size : size]
}

// TestRowKernelsStayInBounds runs every dispatched kernel with each operand
// ending flush against an inaccessible page, at every height: a 16-byte load
// that reaches one sample or one row past what the wrapper proved
// in bounds faults here, where on the heap it would read a neighbour.
func TestRowKernelsStayInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("kernel touched memory outside its slices: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(28))
	for i := range phases {
		ph := &phases[i]
		for h := 1; h <= 16; h++ {
			wa, wb := 16+rng.Intn(55), 16+rng.Intn(55)
			for _, off := range ph.offs(wb) {
				pa := guarded(t, blockLen(wa, h))
				pb := guarded(t, ph.need(wb, off, h))
				rng.Read(pa)
				rng.Read(pb)
				for _, early := range []int{1, math.MaxInt32} {
					if got, want := ph.sad(pa, wa, pb, wb, off, h, early), ph.sadRef(pa, wa, pb, wb, off, h, early); got != want {
						t.Fatalf("%s (h=%d early=%d) = %d, per-sample = %d", ph.name, h, early, got, want)
					}
				}
			}
		}
	}
}

// TestSSDStaysInBounds runs the squared-error kernel on rows of every width
// 0…80 that end flush against an inaccessible page: a 16- or 8-sample load
// that reaches past the row's last sample faults here.
func TestSSDStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("ssd touched memory outside its slices: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(51))
	for n := 0; n <= 80; n++ {
		a, b := guarded(t, n), guarded(t, n)
		rng.Read(a)
		rng.Read(b)
		if got, want := ssd(a, b), ssdPerSample(a, b); got != want {
			t.Fatalf("ssd (n=%d) = %d, per-sample = %d", n, got, want)
		}
	}
}
