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
	// free recycles region state, so a steady-state region allocates
	// nothing. It holds one region per nesting level or concurrent caller
	// seen so far, up to its capacity; beyond that a region is built for the
	// call and dropped.
	free chan *region
}

// New creates a pool of the given width; width <= 0 selects
// runtime.GOMAXPROCS(0), so -cpu N benchmark runs and GOMAXPROCS-limited
// deployments size themselves automatically.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Four regions cover an experiment fan-out over pipelined agents over a
	// parallel encoder, with one to spare.
	return &Pool{workers: workers, free: make(chan *region, 4)}
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

// region is the state of one parallel region: a set of helper goroutines
// that lives as long as the region and runs any number of rounds — one for a
// ForEach, one per anti-diagonal for a Wavefront — each an index loop shared
// with the caller behind a blocking barrier. It is a recycled value whose
// helper entry point is bound once, so that opening a region and running a
// round cost no allocation.
type region struct {
	n, chunk int
	fn       func(i int)
	next     atomic.Int64
	panicked atomic.Pointer[panicValue]

	helpers int
	start   chan bool     // one token per helper per round; false ends the helper
	done    chan struct{} // one token per helper per round, after its share
	wg      sync.WaitGroup
	help    func() // r.helper

	// A wavefront region's current diagonal (see WavefrontBatch).
	cell               func(x, y int)
	d, yLo, cells, bsz int
	diagonal           func(t int) // r.runDiagonalTask
}

// open takes a region from the pool (or builds one) and starts its helpers.
func (p *Pool) open(helpers int) *region {
	var r *region
	select {
	case r = <-p.free:
	default:
		// The channels are buffered to the pool width, so handing out a
		// round's tokens never blocks the caller.
		r = &region{start: make(chan bool, p.workers), done: make(chan struct{}, p.workers)}
		r.help, r.diagonal = r.helper, r.runDiagonalTask
	}
	r.helpers = helpers
	r.wg.Add(helpers)
	for k := 0; k < helpers; k++ {
		go r.help()
	}
	return r
}

// close ends the helpers, waits for them to exit, returns the region to the
// pool and re-raises the first body panic of its rounds, if any.
func (p *Pool) close(r *region) {
	for k := 0; k < r.helpers; k++ {
		r.start <- false
	}
	r.wg.Wait()
	pv := r.panicked.Swap(nil)
	r.fn, r.cell = nil, nil
	select {
	case p.free <- r:
	default:
	}
	if pv != nil {
		panic(pv.v)
	}
}

func (r *region) helper() {
	defer r.wg.Done()
	for <-r.start {
		r.work()
		r.done <- struct{}{}
	}
}

// work claims chunks of the current round until none are left. A panic in a
// body ends this worker's share; the others drain the remaining chunks.
func (r *region) work() {
	defer func() {
		if v := recover(); v != nil {
			r.panicked.CompareAndSwap(nil, &panicValue{v})
		}
	}()
	for {
		lo := int(r.next.Add(int64(r.chunk))) - r.chunk
		if lo >= r.n {
			return
		}
		hi := lo + r.chunk
		if hi > r.n {
			hi = r.n
		}
		for i := lo; i < hi; i++ {
			r.fn(i)
		}
	}
}

// round runs fn(i) for i in [0, n) on the helpers and the caller and returns
// once every one of them has finished its share; false means a body has
// panicked and the caller should close the region.
func (r *region) round(n int, fn func(i int)) bool {
	r.n, r.fn = n, fn
	r.chunk = max(n/((r.helpers+1)*8), 1)
	r.next.Store(0)
	woken := min(r.helpers, n-1) // no more helpers than there is work for
	for k := 0; k < woken; k++ {
		r.start <- true
	}
	r.work()
	for k := 0; k < woken; k++ {
		<-r.done
	}
	return r.panicked.Load() == nil
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
	r := p.open(nw - 1)
	defer p.close(r)
	r.round(n, fn)
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
// The barrier (every worker hands its token back before the caller opens the
// next diagonal) also establishes the happens-before edge that makes
// neighbor reads race-free; it blocks rather than spins, and one set of
// helpers serves all diagonals of a call. A serial pool runs the plain raster
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
	bsz := max(batch, 1)
	// The longest diagonal — min(h, ⌈w/2⌉) cells — bounds how many workers
	// can ever be busy.
	nw := min(p.Workers(), (min(h, (w+1)/2)+bsz-1)/bsz)
	if nw <= 1 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				fn(x, y)
			}
		}
		return
	}
	r := p.open(nw - 1)
	defer p.close(r)
	r.cell, r.bsz = fn, bsz
	maxD := (w - 1) + 2*(h-1)
	for r.d = 0; r.d <= maxD; r.d++ {
		r.yLo = max((r.d-w+2)/2, 0)
		yHi := min(r.d/2, h-1)
		if yHi < r.yLo {
			continue
		}
		r.cells = yHi - r.yLo + 1
		tasks := (r.cells + r.bsz - 1) / r.bsz
		if tasks == 1 {
			r.runDiagonalTask(0)
		} else if !r.round(tasks, r.diagonal) {
			return
		}
	}
}

// runDiagonalTask executes task t of the current diagonal: up to bsz
// consecutive cells.
func (r *region) runDiagonalTask(t int) {
	lo := t * r.bsz
	hi := min(lo+r.bsz, r.cells)
	for k := lo; k < hi; k++ {
		y := r.yLo + k
		r.cell(r.d-2*y, y)
	}
}
