package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// PipelineStats reports how much overlap a Pipeline run achieved.
type PipelineStats struct {
	// Items is the number of items submitted.
	Items int `json:"items"`
	// Depth is the effective in-flight bound the run used (1 on the
	// inline path).
	Depth int `json:"depth"`
	// MaxInFlight is the peak number of items concurrently between stage
	// entry and final-stage completion.
	MaxInFlight int `json:"max_in_flight"`
	// MeanInFlight is the time-weighted average of in-flight items over
	// the run — the effective pipeline occupancy (1.0 = no overlap,
	// Depth = perfectly full).
	MeanInFlight float64 `json:"mean_in_flight"`
}

// Pipeline runs items [0, n) through the given stages with bounded-depth
// software pipelining. The execution order contract is exactly the serial
// nested loop's, re-sliced:
//
//   - stage s of item i runs after stage s-1 of item i (per-item order), and
//   - stage s of item i runs after stage s of item i-1 (each stage is one
//     goroutine consuming items in FIFO order), and
//   - item i enters stage 0 only after item i-depth left the last stage
//     (bounded in-flight frames).
//
// Stages therefore need no internal locking for state they own: any state
// read and written only by stage s is confined to one goroutine, and state
// handed from stage s to s+1 is synchronized by the inter-stage channels.
// What runs concurrently is different STAGES of different ITEMS — the
// overlap a frame pipeline wants (render N+1 ∥ encode N ∥ transmit N−1).
//
// A serial pool, depth <= 1 or a single stage runs the plain inline loop:
// byte-for-byte the serial code path, no goroutines.
//
// The first stage error aborts the run: in-flight items stop at stage
// boundaries (later items may have completed earlier stages) and Pipeline
// returns that error. A stage panic is re-raised on the caller after all
// stage goroutines have drained.
func (p *Pool) Pipeline(n, depth int, stages ...func(i int) error) (PipelineStats, error) {
	if n <= 0 || len(stages) == 0 {
		return PipelineStats{Items: n, Depth: 1}, nil
	}
	if depth < 1 {
		depth = 1
	}
	if p.Workers() <= 1 || depth <= 1 || len(stages) <= 1 {
		for i := 0; i < n; i++ {
			for _, stage := range stages {
				if err := stage(i); err != nil {
					return PipelineStats{Items: n, Depth: 1, MaxInFlight: 1, MeanInFlight: 1}, err
				}
			}
		}
		return PipelineStats{Items: n, Depth: 1, MaxInFlight: 1, MeanInFlight: 1}, nil
	}

	var (
		occ       = newOccupancy()
		firstErr  atomic.Pointer[error]
		panicked  atomic.Pointer[panicValue]
		abort     = make(chan struct{})
		abortOnce sync.Once
	)
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		abortOnce.Do(func() { close(abort) })
	}
	aborted := func() bool {
		select {
		case <-abort:
			return true
		default:
			return false
		}
	}

	// sem bounds the total items in flight; it also caps every inter-stage
	// channel's backlog, so the buffered sends below can never block.
	sem := make(chan struct{}, depth)
	chans := make([]chan int, len(stages)-1)
	for i := range chans {
		chans[i] = make(chan int, depth)
	}

	var wg sync.WaitGroup
	wg.Add(len(stages))
	for s := range stages {
		go func(s int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &panicValue{r})
					abortOnce.Do(func() { close(abort) })
				}
				if s < len(stages)-1 {
					close(chans[s])
				}
			}()
			if s == 0 {
				for i := 0; i < n; i++ {
					select {
					case sem <- struct{}{}:
					case <-abort:
						return
					}
					occ.change(+1)
					if err := stages[0](i); err != nil {
						fail(err)
						return
					}
					if len(stages) > 1 {
						chans[0] <- i
					}
				}
				return
			}
			for i := range chans[s-1] {
				if aborted() {
					continue // drain without running
				}
				if err := stages[s](i); err != nil {
					fail(err)
					continue
				}
				if s < len(stages)-1 {
					chans[s] <- i
				} else {
					occ.change(-1)
					<-sem
				}
			}
		}(s)
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
	stats := occ.finish()
	stats.Items = n
	stats.Depth = depth
	if ep := firstErr.Load(); ep != nil {
		return stats, *ep
	}
	return stats, nil
}

// occupancy accumulates the time-weighted in-flight count of a pipeline run.
type occupancy struct {
	mu       sync.Mutex
	inflight int
	max      int
	weighted float64 // ∑ inflight · dt, seconds
	last     time.Time
	start    time.Time
}

func newOccupancy() *occupancy {
	now := time.Now()
	return &occupancy{last: now, start: now}
}

func (o *occupancy) change(d int) {
	o.mu.Lock()
	now := time.Now()
	o.weighted += float64(o.inflight) * now.Sub(o.last).Seconds()
	o.last = now
	o.inflight += d
	if o.inflight > o.max {
		o.max = o.inflight
	}
	o.mu.Unlock()
}

func (o *occupancy) finish() PipelineStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	o.weighted += float64(o.inflight) * now.Sub(o.last).Seconds()
	o.last = now
	elapsed := now.Sub(o.start).Seconds()
	mean := 1.0
	if elapsed > 0 {
		mean = o.weighted / elapsed
	}
	return PipelineStats{MaxInFlight: o.max, MeanInFlight: mean}
}
