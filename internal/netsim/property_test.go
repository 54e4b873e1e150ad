package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: link deliveries are FIFO-ordered, never precede their enqueue
// time plus propagation, and conserve bytes (delivery time consistent with
// integrated bandwidth).
func TestPropertyLinkFIFO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := &FadingTrace{
			Base:   Mbps(0.5 + rng.Float64()*4),
			Swing:  rng.Float64() * 0.5,
			Period: 3 + rng.Float64()*10,
			Jitter: rng.Float64() * 0.3,
			Seed:   seed,
		}
		link := NewLink(trace, 0.01)
		tNow := 0.0
		prevDelivery := 0.0
		for i := 0; i < 30; i++ {
			tNow += rng.Float64() * 0.2
			bits := 1000 + rng.Intn(500_000)
			start, _, delivery := link.Send(tNow, bits)
			if start < tNow {
				return false // cannot start before enqueue
			}
			if delivery < start+0.01 {
				return false // cannot beat propagation
			}
			if delivery < prevDelivery {
				return false // FIFO violated
			}
			prevDelivery = delivery
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: drain time over a constant trace matches the closed form.
func TestPropertyConstantLinkExact(t *testing.T) {
	f := func(rateRaw, bitsRaw uint32) bool {
		rate := float64(rateRaw%9000+1000) * 1e3 // 1..10 Mbps
		bits := int(bitsRaw%2_000_000) + 1
		link := NewLink(ConstantTrace(rate), 0)
		_, _, delivery := link.Send(0, bits)
		want := float64(bits) / rate
		return math.Abs(delivery-want) < 2e-3+want*0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the estimator never returns negative bandwidth and returns the
// prior when the window holds no samples.
func TestPropertyEstimatorSane(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEstimator(0.2+rng.Float64(), Mbps(1))
		tNow := 0.0
		for i := 0; i < 50; i++ {
			tNow += rng.Float64() * 0.3
			dur := 0.001 + rng.Float64()*0.2
			e.Record(tNow, tNow+dur, rng.Intn(1_000_000))
			if e.EstimateAt(tNow+dur) < 0 {
				return false
			}
		}
		// Far future: prior.
		return e.EstimateAt(tNow+1000) == Mbps(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every trace type reports non-negative bandwidth at all times.
func TestPropertyTracesNonNegative(t *testing.T) {
	traces := []Trace{
		ConstantTrace(Mbps(2)),
		&StepTrace{Times: []float64{0, 5}, Rates: []float64{Mbps(1), Mbps(3)}},
		&FadingTrace{Base: Mbps(2), Swing: 0.9, Period: 7, Jitter: 0.9, Seed: 3},
		&OutageTrace{Inner: ConstantTrace(Mbps(2)), Start: 1, Interval: 4, Duration: 1},
	}
	for ti, tr := range traces {
		for x := 0.0; x < 60; x += 0.37 {
			if bw := tr.BandwidthAt(x); bw < 0 {
				t.Fatalf("trace %d: negative bandwidth %v at t=%v", ti, bw, x)
			}
		}
	}
}
