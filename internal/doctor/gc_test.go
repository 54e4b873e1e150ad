package doctor

import (
	"strings"
	"testing"

	"dive/internal/obs"
)

// rampSamples builds a runtime-snapshot series whose live heap follows the
// given byte values, with a fixed benign pause tail.
func rampSamples(heaps ...uint64) []obs.RuntimeStats {
	out := make([]obs.RuntimeStats, len(heaps))
	for i, h := range heaps {
		out[i] = obs.RuntimeStats{HeapLiveBytes: h, GCPauseP99Sec: 0.0002}
	}
	return out
}

// TestAnalyzeRuntimeHeapGrowth seeds the leak pathology — a live heap that
// ramps 4x across ten samples with every step increasing — and requires the
// gc-heap-growth finding.
func TestAnalyzeRuntimeHeapGrowth(t *testing.T) {
	samples := rampSamples(10e6, 13e6, 16e6, 19e6, 22e6, 25e6, 28e6, 31e6, 34e6, 40e6)
	fs := AnalyzeRuntime(samples)
	if len(fs) != 1 || fs[0].Check != "gc-heap-growth" {
		t.Fatalf("findings = %+v, want one gc-heap-growth", fs)
	}
	if fs[0].Severity != Fail || fs[0].Value < 3.9 || fs[0].Value > 4.1 {
		t.Errorf("finding = %+v, want Fail with ratio ~4", fs[0])
	}
}

// TestAnalyzeRuntimeSpikeNotSustained pins the sustained requirement: the
// same 4x end-to-end growth delivered as one spike among flat/shrinking
// steps is a burst the next GC returns, not a ramp, and must not fire.
func TestAnalyzeRuntimeSpikeNotSustained(t *testing.T) {
	samples := rampSamples(10e6, 9e6, 10e6, 9e6, 10e6, 9e6, 10e6, 9e6, 10e6, 40e6)
	if fs := AnalyzeRuntime(samples); len(fs) != 0 {
		t.Fatalf("spike diagnosed as sustained growth: %+v", fs)
	}
}

// TestAnalyzeRuntimeHealthy: a flat heap and sub-millisecond pauses diagnose
// clean.
func TestAnalyzeRuntimeHealthy(t *testing.T) {
	samples := rampSamples(12e6, 12.5e6, 12e6, 13e6, 12e6, 12.4e6, 12e6, 12.2e6)
	if fs := AnalyzeRuntime(samples); len(fs) != 0 {
		t.Fatalf("healthy run diagnosed: %+v", fs)
	}
}

// TestAnalyzeRuntimeShortSeriesSkipsGrowth: fewer samples than
// HeapGrowthMinSamples cannot establish a ramp.
func TestAnalyzeRuntimeShortSeriesSkipsGrowth(t *testing.T) {
	samples := rampSamples(10e6, 25e6, 45e6)
	if fs := AnalyzeRuntime(samples); len(fs) != 0 {
		t.Fatalf("3-sample series fired: %+v", fs)
	}
}

// TestAnalyzeRuntimeGCPause seeds the pause pathology: one snapshot with a
// 80 ms pause p99 over the 50 ms ceiling.
func TestAnalyzeRuntimeGCPause(t *testing.T) {
	samples := rampSamples(12e6, 12e6, 12e6)
	samples[1].GCPauseP99Sec = 0.08
	fs := AnalyzeRuntime(samples)
	if len(fs) != 1 || fs[0].Check != "gc-pause-p99" {
		t.Fatalf("findings = %+v, want one gc-pause-p99", fs)
	}
	if fs[0].Value != 0.08 {
		t.Errorf("value = %v, want 0.08", fs[0].Value)
	}
}

// TestReadRuntimeSamples round-trips a JSONL stream of runtime snapshots
// through the one JSONL reader, skipping blank lines.
func TestReadRuntimeSamples(t *testing.T) {
	in := `{"heap_live_bytes":1000,"gc_pause_p99_sec":0.001,"goroutines":2,"gomaxprocs":4}

{"heap_live_bytes":2000,"gc_pause_p99_sec":0.002,"goroutines":3,"gomaxprocs":4}
`
	got, err := obs.ReadJSONL[obs.RuntimeStats](strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].HeapLiveBytes != 1000 || got[1].Goroutines != 3 {
		t.Fatalf("decoded %+v", got)
	}
	if _, err := obs.ReadJSONL[obs.RuntimeStats](strings.NewReader("{broken")); err == nil {
		t.Error("malformed line decoded without error")
	}
}
