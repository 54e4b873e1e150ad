package geom

import "math"

// Histogram is a fixed-width binned histogram over [Min, Max).
type Histogram struct {
	Min, Max float64
	Counts   []int
	total    int
}

// NewHistogram creates a histogram with n bins over [min, max). It panics if
// n <= 0 or max <= min, which indicates a programming error.
func NewHistogram(min, max float64, n int) *Histogram {
	h := &Histogram{}
	h.Reset(min, max, n)
	return h
}

// Reset empties h and gives it n bins over [min, max), keeping the count
// storage when it is large enough. It panics like NewHistogram.
func (h *Histogram) Reset(min, max float64, n int) {
	if n <= 0 || max <= min {
		panic("geom: invalid histogram parameters")
	}
	if cap(h.Counts) < n {
		h.Counts = make([]int, n)
	}
	h.Min, h.Max, h.Counts, h.total = min, max, h.Counts[:n], 0
	clear(h.Counts)
}

// Add records value v; values outside [Min, Max) are clamped into the
// nearest bin so tails are never silently dropped.
func (h *Histogram) Add(v float64) {
	n := len(h.Counts)
	i := int((v - h.Min) / (h.Max - h.Min) * float64(n))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// TriangleThreshold applies Zack's triangle method to the histogram and
// returns the threshold value. The paper uses it to separate "ground"
// normalized motion-vector magnitudes (the dominant peak) from everything
// else: a line is drawn from the histogram peak to the farthest empty tail,
// and the bin with the maximum perpendicular distance below that line is the
// threshold.
//
// The returned value is the center of the threshold bin. Empty histograms
// return Min.
func (h *Histogram) TriangleThreshold() float64 {
	if h.total == 0 {
		return h.Min
	}
	peak, peakV := 0, -1
	lo, hi := -1, -1
	for i, c := range h.Counts {
		if c > peakV {
			peak, peakV = i, c
		}
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	// Pick the longer tail to draw the triangle toward.
	end := hi
	if peak-lo > hi-peak {
		end = lo
	}
	if end == peak {
		return h.BinCenter(peak)
	}
	// Line from (peak, peakV) to (end, 0); maximize distance of (i, c).
	dx := float64(end - peak)
	dy := float64(0 - peakV)
	norm := dx*dx + dy*dy
	bestI, bestD := peak, -1.0
	step := 1
	if end < peak {
		step = -1
	}
	for i := peak; i != end; i += step {
		px := float64(i - peak)
		py := float64(h.Counts[i] - peakV)
		// Perpendicular distance (unnormalized is fine for argmax, but
		// keep the true value for stability checks).
		d := absf(px*dy-py*dx) / math.Sqrt(norm)
		if d > bestD {
			bestD = d
			bestI = i
		}
	}
	return h.BinCenter(bestI)
}
