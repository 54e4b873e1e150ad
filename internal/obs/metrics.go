// Package obs is the pipeline telemetry subsystem. Each mechanism exists
// once and each per-frame fact is stored once:
//
//   - one metric family type (registry.go): atomic counters, gauges and
//     fixed-bucket histograms keyed by at most one label — a plain metric is
//     the family with no label — in a zero-dependency Registry exposed as
//     Prometheus text and as a JSON Snapshot;
//   - one bounded ring (ring.go) with one JSONL reader and writer: it holds
//     the per-frame decision journal (what was decided, wall-clock-free), the
//     spans of the causal frame traces (how long each agent/link/edge stage
//     took); the frame-lifecycle records (frames.go) are the journal joined
//     with the spans at read time;
//   - per-session SLO windows with error-budget burn rates (slo.go), the
//     fleet aggregation plane (fleet.go), Go runtime stats (runtime.go);
//   - one HTTP surface (http.go): /metrics, /debug/vars, /debug/frames,
//     /debug/journal, /debug/spans, /debug/slo, /debug/runtime and pprof,
//     all listed by the index at /.
//
// Everything is safe for concurrent use. Instrumented packages hold a
// *Recorder that may be nil; every method on Recorder, Counter, Gauge,
// Histogram, Family, Ring and SLOTracker tolerates a nil receiver, so
// instrumentation sites need no guards and cost a few nanoseconds when
// telemetry is off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bounds[i] is the inclusive upper
// bound of bucket i, with an implicit +Inf overflow bucket. Observations
// and reads are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, updated by CAS
	count  atomic.Int64
}

// NewHistogram creates a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the bucket containing the target rank. Samples in the overflow
// bucket report the highest finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantileFromBuckets(h.bounds, h.bucketCounts(), q)
}

// quantileFromBuckets is the quantile estimator over raw (non-cumulative)
// bucket counts — shared by live histograms and their snapshots so both
// report identical quantiles for identical bucket contents.
func quantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range counts {
		n := float64(counts[i])
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if i == len(bounds) {
			// Overflow bucket: no finite upper bound to interpolate to.
			return lo
		}
		hi := bounds[i]
		frac := (rank - cum) / n
		return lo + frac*(hi-lo)
	}
	if len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// bucketCounts returns the raw (non-cumulative) per-bucket counts.
func (h *Histogram) bucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Merge folds every observation recorded in src into h. Both histograms
// must share identical bucket bounds; bucket counts then add exactly, so
// the merged quantiles equal those of a single histogram that had observed
// both streams — the property the fleet aggregator depends on when it
// collapses per-session latency histograms into one fleet distribution.
// Merging from a histogram that is being observed concurrently is safe;
// the merge sees some point-in-time prefix of its observations.
func (h *Histogram) Merge(src *Histogram) error {
	if h == nil || src == nil {
		return nil
	}
	if len(h.bounds) != len(src.bounds) {
		return fmt.Errorf("obs: merge histogram with %d bounds into %d", len(src.bounds), len(h.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != src.bounds[i] {
			return fmt.Errorf("obs: merge histograms with different bounds (index %d: %g vs %g)", i, h.bounds[i], src.bounds[i])
		}
	}
	for i := range src.counts {
		if n := src.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(src.count.Load())
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + src.Sum())
		if h.sum.CompareAndSwap(old, nv) {
			return nil
		}
	}
}

// cumulative returns a snapshot of cumulative counts per bound (for the
// Prometheus exposition, which is cumulative).
func (h *Histogram) cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// DefaultDurationBuckets spans 25µs to 10s exponentially — wide enough for
// sub-millisecond geometry stages and multi-second full-frame encodes.
var DefaultDurationBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// HistogramSnapshot is the point-in-time summary of one histogram. Bounds
// and Buckets carry the raw (non-cumulative) bucket detail; both are omitted
// from JSON when absent (hand-built summaries).
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// snapshotHistogram summarizes h including its bucket detail. The quantiles
// are computed from the same bucket copy that is exported, so a consumer
// re-deriving quantiles from Buckets reproduces them exactly.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	buckets := h.bucketCounts()
	var count int64
	for _, c := range buckets {
		count += c
	}
	return HistogramSnapshot{
		Count: count, Sum: h.Sum(),
		P50:     quantileFromBuckets(h.bounds, buckets, 0.50),
		P95:     quantileFromBuckets(h.bounds, buckets, 0.95),
		P99:     quantileFromBuckets(h.bounds, buckets, 0.99),
		Bounds:  h.Bounds(),
		Buckets: buckets,
	}
}
