package doctor

import (
	"fmt"

	"dive/internal/obs"
)

// GC-pressure diagnosis: a long-running agent whose encode path leaks (or
// merely churns) heap shows up as a live-heap ramp and a fattening GC pause
// tail long before it OOMs or misses frame deadlines. The detector consumes
// a time-ordered series of obs.RuntimeStats snapshots — sampled from
// /debug/runtime by divedoctor -follow — and fires on two pathologies:
//
//   - gc-heap-growth: the live heap grew by more than heapGrowthRatio over
//     a series of at least heapGrowthMinSamples snapshots AND the growth is
//     sustained (at least heapGrowthFrac of the steps increase), which
//     separates a leak/churn ramp from a single benign allocation burst
//     that the next GC returns.
//   - gc-pause-p99: the GC stop-the-world pause p99 exceeded
//     gcPauseP99CeilSec in any snapshot. On a 30 fps agent the frame budget
//     is 33 ms; a pause tail in the tens of milliseconds is a co-tenant the
//     rate controller cannot see.
const (
	heapGrowthRatio      = 2.0
	heapGrowthMinSamples = 6
	heapGrowthFrac       = 0.7
	gcPauseP99CeilSec    = 0.05
)

// AnalyzeRuntime diagnoses GC pressure from a time-ordered series of runtime
// snapshots (/debug/runtime polls). Fewer than heapGrowthMinSamples
// snapshots skips the heap-growth check (the pause check needs only one).
func AnalyzeRuntime(samples []obs.RuntimeStats) []Finding {
	var out []Finding
	if f := heapGrowthFinding(samples); f != nil {
		out = append(out, *f)
	}
	if f := gcPauseFinding(samples); f != nil {
		out = append(out, *f)
	}
	return out
}

func heapGrowthFinding(samples []obs.RuntimeStats) *Finding {
	if len(samples) < heapGrowthMinSamples {
		return nil
	}
	first, last := samples[0].HeapLiveBytes, samples[len(samples)-1].HeapLiveBytes
	if first == 0 {
		return nil
	}
	ratio := float64(last) / float64(first)
	if ratio <= heapGrowthRatio {
		return nil
	}
	// Sustained means the ramp is made of many small increases, not one
	// spike: count the fraction of steps that grow.
	up := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].HeapLiveBytes > samples[i-1].HeapLiveBytes {
			up++
		}
	}
	frac := float64(up) / float64(len(samples)-1)
	if frac < heapGrowthFrac {
		return nil
	}
	return &Finding{
		Check: "gc-heap-growth", Severity: Fail,
		Value: ratio, Threshold: heapGrowthRatio,
		Message: fmt.Sprintf(
			"live heap grew %.2fx over %d samples (%.1f MB → %.1f MB, %.0f%% of steps increasing) — allocation churn or a leak on the steady-state path",
			ratio, len(samples), float64(first)/1e6, float64(last)/1e6, frac*100),
	}
}

func gcPauseFinding(samples []obs.RuntimeStats) *Finding {
	worst, at := 0.0, -1
	for i, s := range samples {
		if s.GCPauseP99Sec > worst {
			worst, at = s.GCPauseP99Sec, i
		}
	}
	if at < 0 || worst <= gcPauseP99CeilSec {
		return nil
	}
	return &Finding{
		Check: "gc-pause-p99", Severity: Fail,
		Value: worst, Threshold: gcPauseP99CeilSec,
		Message: fmt.Sprintf(
			"GC pause p99 reached %.1f ms (sample %d of %d), over the %.1f ms ceiling — the collector is stealing frame budget",
			worst*1000, at, len(samples), gcPauseP99CeilSec*1000),
	}
}
