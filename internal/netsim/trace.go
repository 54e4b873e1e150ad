// Package netsim simulates the mobile uplink between agent and edge server:
// time-varying bandwidth traces, deterministic outage injection, a FIFO
// transmission link with propagation delay, and the sliding-window
// bandwidth estimator the agent's adaptive encoder consumes. All times are
// simulated seconds on a shared logical clock, so experiments are exact and
// reproducible.
package netsim

import "math"

// Trace models uplink bandwidth over time in bits per second.
type Trace interface {
	// BandwidthAt returns the instantaneous bandwidth at time t (bits/s).
	BandwidthAt(t float64) float64
}

// ConstantTrace is a fixed-rate link.
type ConstantTrace float64

// BandwidthAt implements Trace.
func (c ConstantTrace) BandwidthAt(float64) float64 { return float64(c) }

// Mbps converts megabits per second to bits per second.
func Mbps(v float64) float64 { return v * 1e6 }

// StepTrace is piecewise-constant bandwidth: Times[i] is when Rates[i]
// begins. Times must be ascending and start at 0.
type StepTrace struct {
	Times []float64
	Rates []float64
}

// BandwidthAt implements Trace.
func (s *StepTrace) BandwidthAt(t float64) float64 {
	rate := 0.0
	for i, start := range s.Times {
		if t >= start {
			rate = s.Rates[i]
		} else {
			break
		}
	}
	return rate
}

// FadingTrace models a mobile link: a base rate modulated by slow sinusoidal
// fading plus fast pseudo-random variation. The variation is a deterministic
// function of (Seed, t), so the trace is reproducible and random access.
type FadingTrace struct {
	Base   float64 // bits/s
	Swing  float64 // fraction of Base for the slow component (0..1)
	Period float64 // seconds of the slow fade cycle
	Jitter float64 // fraction of Base for the fast component (0..1)
	Seed   int64
}

// BandwidthAt implements Trace.
func (f *FadingTrace) BandwidthAt(t float64) float64 {
	slow := math.Sin(2 * math.Pi * t / f.Period)
	// Fast component: hash 100 ms buckets and interpolate.
	bucket := math.Floor(t * 10)
	frac := t*10 - bucket
	j0 := hashUnit(int64(bucket), f.Seed)
	j1 := hashUnit(int64(bucket)+1, f.Seed)
	fast := (j0*(1-frac) + j1*frac) * 2 // in [0, 2)
	bw := f.Base * (1 + f.Swing*slow + f.Jitter*(fast-1))
	if bw < 0.02*f.Base {
		bw = 0.02 * f.Base
	}
	return bw
}

// hashUnit maps (n, seed) deterministically onto [0, 1).
func hashUnit(n, seed int64) float64 {
	h := uint64(n)*0x9E3779B97F4A7C15 ^ uint64(seed)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

// OutageTrace wraps another trace, forcing bandwidth to zero for Duration
// seconds every Interval seconds (first outage starts at Start). Figure 13
// uses it to model hard handovers and deep fades.
type OutageTrace struct {
	Inner    Trace
	Start    float64
	Interval float64
	Duration float64
}

// BandwidthAt implements Trace.
func (o *OutageTrace) BandwidthAt(t float64) float64 {
	if o.Interval > 0 && t >= o.Start {
		phase := math.Mod(t-o.Start, o.Interval)
		if phase < o.Duration {
			return 0
		}
	}
	return o.Inner.BandwidthAt(t)
}
