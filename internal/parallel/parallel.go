// Package parallel is the harness's fan-out: a GOMAXPROCS-aware width policy
// for loops whose bodies are independent — the experiment registry's clips
// and runs, the renderer's scanline bands — with results identical to the
// serial loop at every width. Nothing in the agent uses it: an agent frame
// runs on its caller's goroutine.
//
// A Pool is a width, not a set of resident threads: ForEach spawns at most
// Workers-1 goroutines for the call and the caller works too, so a ForEach
// nested in another always makes progress. A nil *Pool and a width-1 pool run
// the plain loop.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the parallelism of the loops run through it.
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

// Serial returns a width-1 pool: every loop runs inline on the caller.
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
// included), which claim chunks of the index range from a shared cursor. With
// a serial pool it is a plain loop. A panic in any body is re-raised on the
// caller after all workers have drained.
func (p *Pool) ForEach(n int, fn func(i int)) {
	nw := min(p.Workers(), n)
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := max(n/(nw*8), 1)
	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
		wg       sync.WaitGroup
	)
	// A panic in a body ends that worker's share; the others drain the
	// remaining chunks.
	work := func() {
		defer func() {
			if v := recover(); v != nil {
				panicked.CompareAndSwap(nil, &panicValue{v})
			}
		}()
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+chunk, n); i++ {
				fn(i)
			}
		}
	}
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
