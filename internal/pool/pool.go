// Package pool is the buffer-reuse layer behind the allocation-free
// steady-state encode path: bounded free lists for the per-frame buffers the
// hot loop would otherwise re-allocate every frame (the encoder's
// reconstruction planes, the decoder's picture buffers).
//
// Every free list is a buffered channel, not a sync.Pool: sync.Pool drops
// its contents on every GC cycle, which re-introduces exactly the
// steady-state allocation churn this layer exists to remove; a channel free
// list keeps its capacity forever, so after warm-up the hot loop runs at zero
// allocations per frame. A release on one goroutine also happens-before the
// acquisition that receives the same item on another.
//
// Ownership rules (see DESIGN.md "Buffer ownership in the pooled encoder"):
// a Get transfers exclusive ownership to the caller; Put transfers it back
// and the caller must not touch the buffer afterwards. A full free list
// drops the returned buffer on the floor (garbage collected) rather than
// blocking — the lists are sized for the steady-state working set, and
// overflow only happens during reconfiguration transients.
package pool

import "dive/internal/imgx"

// Freelist is a bounded, channel-backed free list of *T. The zero value is
// unusable; create with NewFreelist. All methods are safe for concurrent
// use, and a release on one goroutine happens-before the acquisition that
// receives the same item on another.
type Freelist[T any] struct {
	ch chan *T
}

// NewFreelist creates a free list retaining at most capacity items.
// capacity < 1 is raised to 1.
func NewFreelist[T any](capacity int) *Freelist[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Freelist[T]{ch: make(chan *T, capacity)}
}

// Get returns a recycled item, or nil when the list is empty (the caller
// allocates). It never blocks.
func (f *Freelist[T]) Get() *T {
	select {
	case v := <-f.ch:
		return v
	default:
		return nil
	}
}

// Put releases an item back to the list. A nil item is ignored; when the
// list is full the item is dropped for the garbage collector. It never
// blocks.
func (f *Freelist[T]) Put(v *T) {
	if v == nil {
		return
	}
	select {
	case f.ch <- v:
	default:
	}
}

// Len returns how many items are currently retained.
func (f *Freelist[T]) Len() int { return len(f.ch) }

// Planes is a free list of equally sized imgx.Planes. Planes of the wrong
// size are rejected at Put, so one pool serves exactly one frame geometry —
// the encoder's case. Recycled planes keep their previous pixel content;
// callers that need a defined initial state must Fill, and callers that
// reuse a plane as an analysis input must rely on the content generation
// counter (Get bumps it, so content-keyed caches can never confuse a
// recycled plane with the frame it used to hold).
type Planes struct {
	w, h int
	free *Freelist[imgx.Plane]
}

// NewPlanes creates a plane pool for w×h planes retaining at most capacity
// planes.
func NewPlanes(w, h, capacity int) *Planes {
	return &Planes{w: w, h: h, free: NewFreelist[imgx.Plane](capacity)}
}

// Get returns a w×h plane: recycled when one is available, freshly
// allocated otherwise. The pixel content is undefined (callers on the
// encode path overwrite every pixel); the content generation counter is
// bumped so stale cache keys die with the old content.
func (p *Planes) Get() *imgx.Plane {
	if pl := p.free.Get(); pl != nil {
		pl.Bump()
		return pl
	}
	return imgx.NewPlane(p.w, p.h)
}

// Put releases a plane for reuse. Nil planes and planes of a different
// geometry are ignored (dropped for the garbage collector).
func (p *Planes) Put(pl *imgx.Plane) {
	if pl == nil || pl.W != p.w || pl.H != p.h {
		return
	}
	p.free.Put(pl)
}

// Len returns how many planes are currently retained.
func (p *Planes) Len() int { return p.free.Len() }
