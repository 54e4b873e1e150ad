package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaults(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d", got)
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("New(7).Workers() = %d", got)
	}
	if got := Serial().Workers(); got != 1 {
		t.Errorf("Serial().Workers() = %d", got)
	}
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		New(workers).ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachSmallN(t *testing.T) {
	var ran atomic.Int32
	New(8).ForEach(0, func(i int) { ran.Add(1) })
	New(8).ForEach(1, func(i int) { ran.Add(1) })
	if ran.Load() != 1 {
		t.Errorf("ran = %d, want 1", ran.Load())
	}
	// A nil pool is serial and must still execute everything.
	var p *Pool
	sum := 0
	p.ForEach(5, func(i int) { sum += i })
	if sum != 10 {
		t.Errorf("nil pool sum = %d", sum)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	New(4).ForEach(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestBandsPartitionIsFixed(t *testing.T) {
	const n, band = 100, 16
	for _, workers := range []int{1, 5} {
		covered := make([]atomic.Int32, n)
		var bandsSeen atomic.Int32
		New(workers).Bands(n, band, func(b, lo, hi int) {
			bandsSeen.Add(1)
			if lo != b*band {
				t.Errorf("band %d starts at %d, want %d", b, lo, b*band)
			}
			if hi-lo > band {
				t.Errorf("band %d has height %d > %d", b, hi-lo, band)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		if bandsSeen.Load() != 7 { // ceil(100/16)
			t.Errorf("workers=%d: %d bands, want 7", workers, bandsSeen.Load())
		}
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: row %d covered %d times", workers, i, covered[i].Load())
			}
		}
	}
}

// TestWavefrontDependencies asserts that when fn(x, y) runs, its left, top
// and top-right neighbors have already completed — the exact precondition
// for bit-identical motion-vector prediction.
func TestWavefrontDependencies(t *testing.T) {
	const w, h = 9, 7
	for _, workers := range []int{1, 2, 8} {
		done := make([]atomic.Bool, w*h)
		New(workers).Wavefront(w, h, func(x, y int) {
			check := func(nx, ny int) {
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					return
				}
				if !done[ny*w+nx].Load() {
					t.Errorf("workers=%d: cell (%d,%d) ran before dependency (%d,%d)", workers, x, y, nx, ny)
				}
			}
			check(x-1, y)
			check(x, y-1)
			check(x+1, y-1)
			done[y*w+x].Store(true)
		})
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("workers=%d: cell %d never ran", workers, i)
			}
		}
	}
}

// TestWavefrontBatchDependencies repeats the dependency assertion for every
// batch size the codec might pick: batching must only group cells that are
// already mutually independent, so the precondition holds regardless.
func TestWavefrontBatchDependencies(t *testing.T) {
	const w, h = 11, 6
	for _, batch := range []int{1, 2, 3, 4, 7, 100} {
		for _, workers := range []int{2, 8} {
			done := make([]atomic.Bool, w*h)
			New(workers).WavefrontBatch(w, h, batch, func(x, y int) {
				check := func(nx, ny int) {
					if nx < 0 || ny < 0 || nx >= w || ny >= h {
						return
					}
					if !done[ny*w+nx].Load() {
						t.Errorf("batch=%d workers=%d: cell (%d,%d) ran before dependency (%d,%d)",
							batch, workers, x, y, nx, ny)
					}
				}
				check(x-1, y)
				check(x, y-1)
				check(x+1, y-1)
				done[y*w+x].Store(true)
			})
			for i := range done {
				if !done[i].Load() {
					t.Fatalf("batch=%d workers=%d: cell %d never ran", batch, workers, i)
				}
			}
		}
	}
}

// TestWavefrontBatchBitExact runs a neighbor-dependent computation (each
// cell derives its value from the finalized left/top/top-right values, like
// MV prediction) and asserts the result is identical to the serial raster
// scan at every batch size and worker count.
func TestWavefrontBatchBitExact(t *testing.T) {
	const w, h = 13, 9
	compute := func(out []int64, x, y int) {
		at := func(nx, ny int) int64 {
			if nx < 0 || ny < 0 || nx >= w || ny >= h {
				return -1
			}
			return out[ny*w+nx]
		}
		out[y*w+x] = 3*at(x-1, y) + 5*at(x, y-1) + 7*at(x+1, y-1) + int64(x*31+y)
	}
	want := make([]int64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			compute(want, x, y)
		}
	}
	for _, batch := range []int{0, 1, 2, 3, 4} {
		for _, workers := range []int{2, 8} {
			got := make([]int64, w*h)
			New(workers).WavefrontBatch(w, h, batch, func(x, y int) { compute(got, x, y) })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("batch=%d workers=%d: cell %d = %d, want %d (serial)",
						batch, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWavefrontDegenerateGrids(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {5, 1}, {1, 5}, {2, 3}} {
		w, h := dims[0], dims[1]
		var n atomic.Int32
		New(4).Wavefront(w, h, func(x, y int) { n.Add(1) })
		if int(n.Load()) != w*h {
			t.Errorf("%dx%d grid: ran %d cells", w, h, n.Load())
		}
	}
}

// TestRegionsAllocateNothing pins a steady-state region at zero allocations
// at widths 2 and 4: region state is recycled through the pool and its worker
// entry points are bound once, so neither a ForEach nor the one-region-per-
// diagonal Wavefront costs the caller an object. The bodies are bound outside
// the measured call, as the encoder binds its own.
func TestRegionsAllocateNothing(t *testing.T) {
	var cells [20 * 12]atomic.Int32
	each := func(i int) { cells[i].Add(1) }
	cell := func(x, y int) { cells[y*20+x].Add(1) }
	for _, workers := range []int{2, 4} {
		p := New(workers)
		p.ForEach(len(cells), each) // first use builds the region
		if a := testing.AllocsPerRun(50, func() { p.ForEach(len(cells), each) }); a != 0 {
			t.Errorf("workers=%d: ForEach allocates %.0f objects per region, want 0", workers, a)
		}
		if a := testing.AllocsPerRun(50, func() { p.Wavefront(20, 12, cell) }); a != 0 {
			t.Errorf("workers=%d: Wavefront allocates %.0f objects per call, want 0", workers, a)
		}
	}
	if n := cells[0].Load(); n != 2*(1+51+51) {
		t.Errorf("cell 0 ran %d times, want %d", n, 2*(1+51+51))
	}
}

// TestRegionsNestAndSurvivePanics exercises what recycling must not break:
// a region opened from inside another on the same pool gets state of its own
// (no deadlock, every index once), and a region whose body panicked goes back
// to the pool clean — the next one neither re-raises the old panic nor loses
// work.
func TestRegionsNestAndSurvivePanics(t *testing.T) {
	p := New(4)
	const n = 40
	counts := make([]atomic.Int32, n*n)
	p.ForEach(n, func(i int) {
		p.ForEach(n, func(j int) { counts[i*n+j].Add(1) })
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("nested index %d ran %d times", i, c)
		}
	}
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				if r := recover(); r != "cell" {
					t.Errorf("round %d: recovered %v, want the cell's panic", round, r)
				}
			}()
			p.Wavefront(9, 7, func(x, y int) {
				if x == 4 && y == 3 {
					panic("cell")
				}
			})
		}()
		var ran atomic.Int32
		p.Wavefront(9, 7, func(x, y int) { ran.Add(1) })
		if ran.Load() != 63 {
			t.Fatalf("round %d: wavefront after a panic ran %d of 63 cells", round, ran.Load())
		}
	}
}
