package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the bandwidth estimator under outage-heavy ack
// histories: whatever the sample pattern, the estimate must stay strictly
// positive (rate control divides budgets out of it), and poisoned samples —
// acks that realized ~zero throughput because they straddled dead air —
// must age out of the estimate within the sliding window.

func TestEstimatorNeverNonPositive(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		est := NewEstimator(0.25, Mbps(2))
		now := 0.0
		for i := 0; i < 300; i++ {
			dur := rng.Float64() * 0.2
			var bits int
			switch rng.Intn(4) {
			case 0: // outage-poisoned ack: an interval that carried nothing
				bits = 0
			case 1: // near-zero trickle
				bits = rng.Intn(8)
			default:
				bits = rng.Intn(200_000)
			}
			est.Record(now, now+dur, bits)
			now += dur + rng.Float64()*0.1
			if got := est.EstimateAt(now); got <= 0 || math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("seed %d step %d: EstimateAt = %v", seed, i, got)
			}
			// Probing at arbitrary times (including before all samples)
			// must also stay positive.
			if got := est.EstimateAt(rng.Float64() * now); got <= 0 {
				t.Fatalf("seed %d step %d: historic EstimateAt = %v", seed, i, got)
			}
		}
	}
}

func TestEstimatorFloor(t *testing.T) {
	est := NewEstimator(0.25, Mbps(2))
	est.Record(0, 1, 0) // pure poison
	if got := est.EstimateAt(1); got != DefaultMinEstimate {
		t.Errorf("floored estimate = %v, want default floor", got)
	}
	// Zero prior with no samples still floors.
	empty := NewEstimator(0.25, 0)
	if got := empty.EstimateAt(5); got != DefaultMinEstimate {
		t.Errorf("empty estimator = %v, want default floor", got)
	}
}

// TestEstimatorPoisonDecays records a healthy regime, injects poisoned acks,
// then resumes healthy traffic: once the poisoned samples slide out of the
// window the estimate must return to the true rate.
func TestEstimatorPoisonDecays(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const window = 0.25
		const rate = 2_000_000.0 // true link rate, bits/s
		est := NewEstimator(window, Mbps(2))

		now := 0.0
		record := func(bits float64, dur float64) {
			est.Record(now, now+dur, int(bits))
			now += dur + 0.01
		}
		// Healthy regime.
		for i := 0; i < 20; i++ {
			d := 0.02 + rng.Float64()*0.03
			record(rate*d, d)
		}
		// Poison: acked intervals that carried nothing (outage straddles).
		for i := 0; i < 10; i++ {
			record(0, 0.05+rng.Float64()*0.1)
		}
		poisoned := est.EstimateAt(now)
		if poisoned <= 0 {
			t.Fatalf("seed %d: poisoned estimate %v non-positive", seed, poisoned)
		}
		if poisoned > rate/2 {
			t.Fatalf("seed %d: poison did not depress the estimate (%v)", seed, poisoned)
		}
		// Healthy again. After more than a full window of clean samples,
		// every poisoned sample is outside [t-window, t] and the estimate
		// must be back within 20%% of the true rate.
		for now0 := now; now < now0+2*window+0.2; {
			d := 0.02 + rng.Float64()*0.02
			record(rate*d, d)
		}
		got := est.EstimateAt(now)
		if math.Abs(got-rate)/rate > 0.2 {
			t.Errorf("seed %d: estimate %v after poison cleared, want ~%v", seed, got, rate)
		}
	}
}

// TestEstimatorWindowExcludesOldSamples pins the sliding-window semantics
// the decay property relies on: a sample entirely older than t-Window
// contributes nothing.
func TestEstimatorWindowExcludesOldSamples(t *testing.T) {
	est := NewEstimator(0.25, Mbps(2))
	est.Record(0, 0.1, 1_000_000)
	// Inside the window the sample dominates.
	if got := est.EstimateAt(0.2); math.Abs(got-10_000_000) > 1 {
		t.Errorf("in-window estimate %v, want 1e7", got)
	}
	// Far past the window the prior returns.
	if got := est.EstimateAt(10); got != Mbps(2) {
		t.Errorf("post-window estimate %v, want prior", got)
	}
}
