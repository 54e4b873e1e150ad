package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Go runtime visibility: a small, stable slice of runtime/metrics surfaced
// as registry gauges and at /debug/runtime. The GC is a co-tenant of the
// encode path; its live heap and pause tail are what divedoctor -follow's
// gc-pressure checks read.

// runtimeSamples are the runtime/metrics keys we read. The GC pause
// histogram moved from /gc/pauses:seconds to /sched/pauses/total/gc:seconds
// in Go 1.22; we ask for both and use whichever the runtime serves.
var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/sched/pauses/total/gc:seconds",
	"/gc/pauses:seconds",
}

// RuntimeStats is a point-in-time snapshot of the Go runtime health signals.
type RuntimeStats struct {
	// HeapLiveBytes is the size of live (not yet collected) heap objects.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// GCPauseP99Sec is the p99 of the cumulative GC stop-the-world pause
	// distribution.
	GCPauseP99Sec float64 `json:"gc_pause_p99_sec"`
	Goroutines    int     `json:"goroutines"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
}

// CollectRuntimeStats reads the runtime counters in one runtime/metrics
// call, which does not stop the world, so live servers can serve it on
// every poll.
func CollectRuntimeStats() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	st := RuntimeStats{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			switch s.Name {
			case "/memory/classes/heap/objects:bytes":
				st.HeapLiveBytes = s.Value.Uint64()
			case "/sched/goroutines:goroutines":
				st.Goroutines = int(s.Value.Uint64())
			}
		case metrics.KindFloat64Histogram:
			if st.GCPauseP99Sec == 0 {
				st.GCPauseP99Sec = histQuantile(s.Value.Float64Histogram(), 0.99)
			}
		}
	}
	return st
}

// histQuantile estimates a quantile of a runtime/metrics histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank {
			// Buckets[i+1] is the bucket's upper bound; the first and last
			// bounds may be ±Inf.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, +1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// UpdateRuntimeGauges publishes the runtime stats as registry gauges
// (GaugeGoHeapLiveBytes, GaugeGoGCPauseP99, GaugeGoGoroutines). Call it
// periodically or before scraping; it is a no-op on a nil recorder.
func (r *Recorder) UpdateRuntimeGauges() RuntimeStats {
	st := CollectRuntimeStats()
	if r == nil {
		return st
	}
	r.Gauge(GaugeGoHeapLiveBytes).Set(float64(st.HeapLiveBytes))
	r.Gauge(GaugeGoGCPauseP99).Set(st.GCPauseP99Sec)
	r.Gauge(GaugeGoGoroutines).Set(float64(st.Goroutines))
	return st
}
