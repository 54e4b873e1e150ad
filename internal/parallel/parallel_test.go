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

// TestRegionsNestAndSurvivePanics: a ForEach opened from inside another on
// the same pool makes progress (no deadlock, every index once), and a pool
// whose loop body panicked is clean afterwards — the next loop neither
// re-raises the old panic nor loses work.
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
			p.ForEach(63, func(i int) {
				if i == 31 {
					panic("cell")
				}
			})
		}()
		var ran atomic.Int32
		p.ForEach(63, func(int) { ran.Add(1) })
		if ran.Load() != 63 {
			t.Fatalf("round %d: loop after a panic ran %d of 63 indices", round, ran.Load())
		}
	}
}
