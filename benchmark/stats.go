package main

import (
	"fmt"
	"math"
	"sort"

	"dive/internal/geom"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: with fewer, the number is one or two outliers, not a percentile.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by linear
// interpolation between order statistics. It refuses a percentile with fewer
// than minTail samples beyond it, on the side away from the median.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	tail := 1 - q
	if q < 0.5 {
		tail = q
	}
	if float64(n)*tail < minTail-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d in total", q*100, minTail, n)
	}
	return geom.Percentile(samples, q*100), nil
}

// pct is a percentile of samples, 0 when there are too few to support it.
func pct(samples []float64, q float64) float64 {
	v, err := percentile(samples, q)
	if err != nil {
		return 0
	}
	return v
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the middle two for an even
// count), 0 for an empty slice. It is how per-pass values become one number.
func median(v []float64) float64 { return geom.Median(v) }

// quartiles returns the first and third quartile of v by the method of
// Python's statistics.quantiles(v, n=4) (exclusive): position (n+1)·k/4
// among the order statistics, interpolating between the two nearest (and
// past the ends for very small samples, as Python does). Fewer than two
// values give the single value (or 0) for both.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return median(v), median(v)
	}
	s := sortedCopy(v)
	at := func(k int) float64 {
		pos := float64(n+1)*float64(k)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(1), at(3)
}

// sumOf returns the sum of v.
func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// bestOf keeps, for every unit of work a workload repeats pass after pass (a
// frame, or a whole session), the least time any pass took for it. The units
// are identical work each time, and what other tenants of the machine, the
// scheduler or a garbage collection add to one repeat never makes it faster:
// the least of the repeats is the steadiest estimate of the unit's own cost
// that a shared 2-vCPU box allows (per-pass medians spread twice as wide
// between runs; see the README).
type bestOf struct {
	ms []float64
}

// fold merges one pass's times, given in the same order every pass.
func (b *bestOf) fold(pass []float64) {
	if b.ms == nil {
		b.ms = append([]float64(nil), pass...)
		return
	}
	for i, v := range pass[:min(len(pass), len(b.ms))] {
		b.ms[i] = min(b.ms[i], v)
	}
}

// pooled is several bestOfs (one per replay connection) as one sample.
func pooled(parts []bestOf) *bestOf {
	all := &bestOf{}
	for i := range parts {
		all.ms = append(all.ms, parts[i].ms...)
	}
	return all
}

// perSecond is the rate at which the units complete back to back.
func (b *bestOf) perSecond() float64 {
	if s := sumOf(b.ms); s > 0 {
		return float64(len(b.ms)) / (s / 1000)
	}
	return 0
}
