// Package parallel is the deterministic parallel execution layer: a
// bounded, GOMAXPROCS-aware worker pool for data-parallel regions (index
// loops, fixed scanline bands, wavefront grids) whose results are — by
// construction — identical to the serial loop for every worker count.
//
// A Pool is a width policy, not a set of resident threads: each parallel
// region spawns at most Workers-1 short-lived goroutines and the calling
// goroutine itself works too, so nested regions (an experiment fan-out that
// reaches a parallel encoder) can never deadlock on pool exhaustion — the
// submitter always makes progress. A nil *Pool and a width-1 pool run every
// region inline, byte-for-byte the serial code path, which is what tests
// and single-core targets use.
//
// Determinism contract: helpers never make the work decomposition depend on
// the worker count. Bands partitions by a caller-fixed band height (so
// per-band RNG streams reproduce), Wavefront orders cells by dependency
// diagonals (so every cell reads exactly the finalized neighbor values the
// raster scan would have produced), and ForEach requires bodies to be
// independent.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the parallelism of the regions run through it.
type Pool struct {
	workers int
}

// New creates a pool of the given width; width <= 0 selects
// runtime.GOMAXPROCS(0), so -cpu N benchmark runs and GOMAXPROCS-limited
// deployments size themselves automatically.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Serial returns a width-1 pool: every region runs inline on the caller.
func Serial() *Pool { return &Pool{workers: 1} }

// Workers returns the pool width. A nil pool is serial.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for every i in [0, n). Bodies must be independent of
// each other; they run concurrently on up to Workers goroutines (the caller
// included) with chunked work stealing. With a serial pool it is a plain
// loop. A panic in any body is re-raised on the caller after all workers
// have drained.
func (p *Pool) ForEach(n int, fn func(i int)) {
	nw := p.Workers()
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := n / (nw * 8)
	if chunk < 1 {
		chunk = 1
	}
	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicValue{r})
			}
		}()
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for k := 0; k < nw-1; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
}

// panicValue boxes a recovered panic for transport across goroutines.
type panicValue struct{ v any }

// Bands splits [0, n) into contiguous bands of the caller-fixed height band
// and runs fn(b, lo, hi) for each band index b. The partitioning depends
// only on band — never on the worker count — so band-seeded RNG streams
// (e.g. per-band sensor noise) produce identical output at any width.
func (p *Pool) Bands(n, band int, fn func(b, lo, hi int)) {
	if band < 1 {
		band = 1
	}
	nb := (n + band - 1) / band
	p.ForEach(nb, func(b int) {
		lo := b * band
		hi := lo + band
		if hi > n {
			hi = n
		}
		fn(b, lo, hi)
	})
}

// defaultWavefrontBatch is the cells-per-task grouping Wavefront uses: one
// macroblock's motion search is a few microseconds, so dispatching each cell
// as its own task makes the per-diagonal barrier overhead visible on small
// frames. Three cells per task amortizes it while still exposing enough
// tasks per diagonal to keep a typical pool busy.
const defaultWavefrontBatch = 3

// Wavefront runs fn over a w×h grid in which cell (x, y) reads results of
// its left (x-1, y), top (x, y-1) and top-right (x+1, y-1) neighbors — the
// motion-vector prediction dependency of H.264-style codecs. Cells are
// scheduled by anti-diagonals d = x + 2y: the three dependencies of a cell
// on diagonal d lie on d-1 and d-2, so all cells of one diagonal run
// concurrently with a barrier between diagonals, and every cell observes
// exactly the finalized neighbor values the serial raster scan produces.
// The barrier (ForEach completion) also establishes the happens-before edge
// that makes neighbor reads race-free. A serial pool runs the plain raster
// scan. Cells are dispatched in small fixed-size batches
// (WavefrontBatch with defaultWavefrontBatch); the grouping never depends
// on the worker count, so output is identical at every width.
func (p *Pool) Wavefront(w, h int, fn func(x, y int)) {
	p.WavefrontBatch(w, h, defaultWavefrontBatch, fn)
}

// WavefrontBatch is Wavefront with an explicit cells-per-task batch size:
// each scheduled task executes up to batch consecutive cells of one
// anti-diagonal. Cells on the same diagonal are mutually independent (their
// dependencies all lie on earlier diagonals), so any within-diagonal
// grouping preserves the dependency order — the output is bit-exact with
// the serial raster scan at every batch size and worker count; batch only
// tunes how much work amortizes each scheduling step. batch < 1 selects 1.
func (p *Pool) WavefrontBatch(w, h, batch int, fn func(x, y int)) {
	if p.Workers() <= 1 || w <= 0 || h <= 0 || w*h == 1 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				fn(x, y)
			}
		}
		return
	}
	// bsz is a read-only copy: reassigning the captured batch parameter
	// would make the task closure capture it by reference, heap-boxing it at
	// every call — including serial calls that return above.
	bsz := batch
	if bsz < 1 {
		bsz = 1
	}
	maxD := (w - 1) + 2*(h-1)
	for d := 0; d <= maxD; d++ {
		yLo := (d - w + 2) / 2
		if yLo < 0 {
			yLo = 0
		}
		yHi := d / 2
		if yHi > h-1 {
			yHi = h - 1
		}
		if yHi < yLo {
			continue
		}
		cells := yHi - yLo + 1
		tasks := (cells + bsz - 1) / bsz
		p.ForEach(tasks, func(t int) {
			lo := t * bsz
			hi := lo + bsz
			if hi > cells {
				hi = cells
			}
			for k := lo; k < hi; k++ {
				y := yLo + k
				fn(d-2*y, y)
			}
		})
	}
}
