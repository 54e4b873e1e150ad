package netsim

import (
	"math"
	"testing"
)

func TestConstantTraceAndLink(t *testing.T) {
	link := NewLink(ConstantTrace(Mbps(2)), 0.01)
	// 1 Mbit over 2 Mbps = 0.5 s + 10 ms propagation.
	start, _, done := link.Send(0, 1_000_000)
	if start != 0 {
		t.Errorf("start = %v", start)
	}
	if math.Abs(done-0.51) > 0.005 {
		t.Errorf("delivery = %v, want ≈ 0.51", done)
	}
	// FIFO: the next message queues behind the first.
	start2, _, done2 := link.Send(0.1, 1_000_000)
	if start2 < 0.49 {
		t.Errorf("second start = %v, want after first drains", start2)
	}
	if done2 < done+0.49 {
		t.Errorf("second delivery = %v", done2)
	}
	if link.QueueDelay(0.2) <= 0 {
		t.Error("queue delay should be positive while busy")
	}
	link.Reset()
	if link.QueueDelay(0.2) != 0 {
		t.Error("reset failed: the queue still holds the first messages")
	}
}

func TestZeroBitsSend(t *testing.T) {
	link := NewLink(ConstantTrace(Mbps(1)), 0.005)
	start, _, done := link.Send(1.0, 0)
	if start != 1.0 || math.Abs(done-1.005) > 1e-9 {
		t.Errorf("zero-bit send = (%v, %v)", start, done)
	}
}

func TestStepTrace(t *testing.T) {
	tr := &StepTrace{Times: []float64{0, 10, 20}, Rates: []float64{Mbps(1), Mbps(5), Mbps(2)}}
	if tr.BandwidthAt(5) != Mbps(1) || tr.BandwidthAt(15) != Mbps(5) || tr.BandwidthAt(25) != Mbps(2) {
		t.Error("step trace lookup wrong")
	}
	if tr.BandwidthAt(-1) != 0 {
		t.Error("pre-start bandwidth should be 0")
	}
	// Link crossing a step boundary: 3 Mbit starting at t=8 drains 2 Mbit
	// in 2 s at 1 Mbps, then 1 Mbit in 0.2 s at 5 Mbps.
	link := NewLink(tr, 0)
	_, _, done := link.Send(8, 3_000_000)
	if math.Abs(done-10.2) > 0.01 {
		t.Errorf("cross-step delivery = %v, want ≈ 10.2", done)
	}
}

func TestOutageTrace(t *testing.T) {
	tr := &OutageTrace{Inner: ConstantTrace(Mbps(2)), Start: 5, Interval: 10, Duration: 1}
	if tr.BandwidthAt(4.9) == 0 {
		t.Error("bandwidth before first outage should be non-zero")
	}
	if tr.BandwidthAt(5.5) != 0 {
		t.Error("outage not applied")
	}
	if tr.BandwidthAt(6.5) == 0 {
		t.Error("bandwidth after outage should recover")
	}
	if tr.BandwidthAt(15.5) != 0 {
		t.Error("periodic outage missing")
	}
	// Transmission through an outage stalls and resumes.
	link := NewLink(tr, 0)
	_, _, done := link.Send(4.8, 1_000_000) // 0.5 s of air time, outage at 5
	if done < 6.0 {
		t.Errorf("delivery = %v, should stall through the outage", done)
	}
}

func TestFadingTraceProperties(t *testing.T) {
	tr := &FadingTrace{Base: Mbps(3), Swing: 0.3, Period: 20, Jitter: 0.2, Seed: 42}
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := tr.BandwidthAt(float64(i) * 0.05)
		if v <= 0 {
			t.Fatal("fading trace went non-positive")
		}
		sum += v
	}
	mean := sum / n
	if mean < Mbps(2.2) || mean > Mbps(3.8) {
		t.Errorf("mean = %v, want near base", mean)
	}
	// Deterministic.
	if tr.BandwidthAt(7.77) != tr.BandwidthAt(7.77) {
		t.Error("fading trace not deterministic")
	}
}

func TestLinkDeadTraceGivesUp(t *testing.T) {
	link := NewLink(ConstantTrace(0), 0)
	_, _, done := link.Send(0, 1000)
	if !math.IsInf(done, 1) {
		t.Errorf("delivery over dead link = %v, want +Inf", done)
	}
}

func TestEstimator(t *testing.T) {
	e := NewEstimator(1.0, Mbps(1))
	if e.EstimateAt(0) != Mbps(1) {
		t.Error("prior not returned")
	}
	// Two transmissions at 2 Mbps (1 Mbit in 0.5 s each).
	e.Record(0.0, 0.5, 1_000_000)
	e.Record(0.5, 1.0, 1_000_000)
	got := e.EstimateAt(1.0)
	if math.Abs(got-Mbps(2)) > 1 {
		t.Errorf("estimate = %v, want 2 Mbps", got)
	}
	// Crucially: a link that is mostly idle still estimates CAPACITY, not
	// wall-clock goodput — 0.1 Mbit in 0.05 s inside a 1 s window is still
	// 2 Mbps.
	e2 := NewEstimator(1.0, Mbps(1))
	e2.Record(0.40, 0.45, 100_000)
	got = e2.EstimateAt(1.0)
	if math.Abs(got-Mbps(2)) > 1 {
		t.Errorf("idle-link estimate = %v, want 2 Mbps", got)
	}
	// Old samples age out of the window.
	if got := e.EstimateAt(5.0); got != Mbps(1) {
		t.Errorf("estimate after window = %v, want prior", got)
	}
	// Partial overlap prorates.
	e3 := NewEstimator(1.0, Mbps(1))
	e3.Record(-0.5, 0.5, 1_000_000) // half inside the [−1+1, 1] window at t=1... window is [0,1]
	got = e3.EstimateAt(1.0)
	if math.Abs(got-Mbps(1)) > 1 {
		t.Errorf("partial-overlap estimate = %v, want 1 Mbps", got)
	}
	// Memory trimming keeps recent samples intact.
	for i := 0; i < 1000; i++ {
		start := float64(i)*0.01 + 3
		e.Record(start, start+0.005, 10_000)
	}
	if e.EstimateAt(13.0) <= 0 {
		t.Error("estimate lost after trimming")
	}
	if len(e.samples) > 600 {
		t.Errorf("sample buffer grew to %d", len(e.samples))
	}
	// Reversed start/end arguments are tolerated.
	e4 := NewEstimator(1.0, Mbps(1))
	e4.Record(0.5, 0.25, 500_000)
	if got := e4.EstimateAt(0.6); math.Abs(got-Mbps(2)) > 1 {
		t.Errorf("reversed-args estimate = %v", got)
	}
}
