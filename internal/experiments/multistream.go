package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dive/internal/codec"
	"dive/internal/obs"
	"dive/internal/world"
)

// Multi-stream packing: how many concurrent agent streams one edge-class
// host can encode. Each stream is an independent serial encoder on its own
// goroutine — the fleet deployment shape, where a host packs one goroutine
// per camera rather than one wide pool per frame. The ladder N = 1/4/16/64
// shows where aggregate frames/sec/core stops scaling and what the GC looks
// like as co-tenant density grows; with the steady state at 0 allocs/frame
// the collector should stay idle at every rung.

// StreamRung is one concurrency level of the packing ladder.
type StreamRung struct {
	Streams int `json:"streams"`
	// Frames is the aggregate frame count across all streams in the window.
	Frames int     `json:"frames"`
	Secs   float64 `json:"secs"`
	// FPS is the aggregate encode rate; FPSPerCore divides by GOMAXPROCS
	// (the cross-rung comparable number); FPSPerStream divides by Streams.
	FPS          float64 `json:"fps"`
	FPSPerCore   float64 `json:"fps_per_core"`
	FPSPerStream float64 `json:"fps_per_stream"`
	// AllocsPerFrame / AllocBytesPerFrame are process-wide heap deltas over
	// the window divided by aggregate frames.
	AllocsPerFrame     float64 `json:"allocs_per_frame"`
	AllocBytesPerFrame float64 `json:"alloc_bytes_per_frame"`
	// GCCycles and GCPauseP99Sec are the collector's co-tenancy cost at this
	// density.
	GCCycles      uint32  `json:"gc_cycles"`
	GCPauseP99Sec float64 `json:"gc_pause_p99_sec"`
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
}

// MultiStreamResult is the full packing ladder.
type MultiStreamResult struct {
	Width, Height int          `json:"-"`
	Rungs         []StreamRung `json:"rungs"`
}

// DefaultStreamLadder is the 1/4/16/64 packing ladder, capped at max
// (0 keeps the whole ladder). A cap between rungs becomes the top rung
// itself, so -streams always measures the exact density asked for.
func DefaultStreamLadder(max int) []int {
	all := []int{1, 4, 16, 64}
	if max <= 0 {
		return all
	}
	var out []int
	for _, n := range all {
		if n <= max {
			out = append(out, n)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// MultiStreamPacking renders one shared clip and runs the packing ladder:
// for each rung, N serial encoders each stream the clip from a
// staggered offset for secs wall-clock seconds. runtimeLog, when non-nil,
// receives periodic obs.RuntimeStats snapshots as JSONL for the whole run —
// the series divedoctor's gc-pressure detectors consume.
func MultiStreamPacking(scale Scale, seed int64, secs float64, ladder []int, runtimeLog io.Writer) (MultiStreamResult, error) {
	if secs <= 0 {
		secs = 2
	}
	if len(ladder) == 0 {
		ladder = DefaultStreamLadder(0)
	}
	p := world.RobotCarLike()
	_, dur := scale.params()
	p.ClipDuration = dur
	clip := world.GenerateClip(p, seed)
	res := MultiStreamResult{Width: clip.W, Height: clip.H}

	// The sampler feeds divedoctor's gc-pressure detectors, which grade a
	// single steady state: it records only the highest-density rung's timed
	// window. Earlier rungs' smaller fleets would otherwise read as a live
	// heap ramp (each rung deliberately allocates a bigger encoder fleet —
	// sizing, not churn).
	sampler := startRuntimeSampler(runtimeLog)
	defer sampler.stop()
	noSampler := &runtimeSampler{}

	budget := time.Duration(secs * float64(time.Second))
	for i, n := range ladder {
		if i > 0 {
			// The previous rung's encoder fleet is dead but uncollected (the
			// steady state allocates nothing, so the GC never runs); collect
			// it so each rung's heap reflects its own fleet, not the sum.
			runtime.GC()
		}
		s := noSampler
		if i == len(ladder)-1 {
			s = sampler
		}
		rung, err := packStreams(clip, n, budget, s)
		if err != nil {
			return res, err
		}
		res.Rungs = append(res.Rungs, rung)
	}
	return res, nil
}

// runtimeSampler writes runtime snapshots to a JSONL sink every ~150 ms,
// but only while enabled — the packing harness enables it strictly inside
// each rung's timed window, so the series divedoctor grades contains only
// steady-state samples (fleet setup and warm-up allocate by design and
// would otherwise read as heap growth).
type runtimeSampler struct {
	enabled atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// startRuntimeSampler spawns the sampling goroutine. A nil w returns a
// sampler whose methods are all no-ops.
func startRuntimeSampler(w io.Writer) *runtimeSampler {
	s := &runtimeSampler{}
	if w == nil {
		return s
	}
	s.done = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		enc := json.NewEncoder(w)
		tick := time.NewTicker(150 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if s.enabled.Load() {
					_ = enc.Encode(obs.CollectRuntimeStats())
				}
			case <-s.done:
				return
			}
		}
	}()
	return s
}

func (s *runtimeSampler) enable()  { s.enabled.Store(true) }
func (s *runtimeSampler) disable() { s.enabled.Store(false) }

func (s *runtimeSampler) stop() {
	if s.done == nil {
		return
	}
	close(s.done)
	s.wg.Wait()
}

// packStreams runs one rung: n encoders over the shared
// (read-only) clip, with staggered frame offsets so the streams do not march
// in lockstep. Every stream warms up before the clock starts; a barrier
// releases all streams together and an atomic flag stops them after the
// wall-clock budget, always completing whole frames.
func packStreams(clip *world.Clip, n int, budget time.Duration, sampler *runtimeSampler) (StreamRung, error) {
	nframes := len(clip.Frames)
	encs := make([]*codec.Encoder, n)
	for s := range encs {
		enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
		if err != nil {
			return StreamRung{}, err
		}
		encs[s] = enc
	}
	opts := codec.EncodeOptions{TargetBits: 150_000}
	warm := nframes
	if warm < 8 {
		warm = 8
	}

	var stopFlag atomic.Bool
	start := make(chan struct{})
	counts := make([]int, n)
	errs := make([]error, n)
	var ready, wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		ready.Add(1)
		go func(s int) {
			defer wg.Done()
			enc := encs[s]
			off := (s * 7) % nframes
			for i := 0; i < warm; i++ {
				if _, err := enc.Encode(clip.Frames[(off+i)%nframes], opts); err != nil {
					errs[s] = err
					ready.Done()
					return
				}
			}
			ready.Done()
			<-start
			for i := warm; !stopFlag.Load(); i++ {
				if _, err := enc.Encode(clip.Frames[(off+i)%nframes], opts); err != nil {
					errs[s] = err
					return
				}
				counts[s]++
			}
		}(s)
	}

	// Wait for every stream to finish its warm-up and park at the barrier,
	// so the timed window and the heap snapshot see only steady state.
	ready.Wait()
	before := obs.CollectRuntimeStats()
	sampler.enable()
	t0 := time.Now()
	close(start)
	time.Sleep(budget)
	stopFlag.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	sampler.disable()
	after := obs.CollectRuntimeStats()

	rung := StreamRung{
		Streams:       n,
		Secs:          elapsed,
		GCCycles:      after.NumGC - before.NumGC,
		GCPauseP99Sec: after.GCPauseP99Sec,
		HeapLiveBytes: after.HeapLiveBytes,
	}
	for s, err := range errs {
		if err != nil {
			return rung, fmt.Errorf("stream %d: %w", s, err)
		}
		rung.Frames += counts[s]
	}
	if elapsed > 0 {
		rung.FPS = float64(rung.Frames) / elapsed
		rung.FPSPerCore = rung.FPS / float64(runtime.GOMAXPROCS(0))
		rung.FPSPerStream = rung.FPS / float64(n)
	}
	if rung.Frames > 0 {
		rung.AllocsPerFrame = float64(after.Mallocs-before.Mallocs) / float64(rung.Frames)
		rung.AllocBytesPerFrame = float64(after.TotalAllocBytes-before.TotalAllocBytes) / float64(rung.Frames)
	}
	return rung, nil
}

// RenderMultiStream formats the packing ladder as a table.
func RenderMultiStream(r MultiStreamResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Multi-stream packing, %dx%d", r.Width, r.Height),
		Columns: []string{"streams", "agg fps", "fps/core", "fps/stream",
			"allocs/frame", "GC cycles", "pause p99 (ms)"},
	}
	for _, g := range r.Rungs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", g.Streams),
			f1(g.FPS), f1(g.FPSPerCore), f1(g.FPSPerStream),
			fmt.Sprintf("%.2f", g.AllocsPerFrame),
			fmt.Sprintf("%d", g.GCCycles),
			fmt.Sprintf("%.2f", g.GCPauseP99Sec*1000),
		})
	}
	return t
}
