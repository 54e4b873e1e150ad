package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Vec2{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
	hull := AppendConvexHull(nil, nil, pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", len(hull), hull)
	}
	for _, c := range []Vec2{{0, 0}, {1, 0}, {1, 1}, {0, 1}} {
		found := false
		for _, h := range hull {
			if h == c {
				found = true
			}
		}
		if !found {
			t.Errorf("corner %v missing from hull", c)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := AppendConvexHull(nil, nil, nil); len(h) != 0 {
		t.Errorf("empty hull = %v", h)
	}
	if h := AppendConvexHull(nil, nil, []Vec2{{1, 2}}); len(h) != 1 {
		t.Errorf("single-point hull = %v", h)
	}
	if h := AppendConvexHull(nil, nil, []Vec2{{1, 2}, {1, 2}, {1, 2}}); len(h) != 1 {
		t.Errorf("duplicate-point hull = %v", h)
	}
	// Collinear points collapse to their extremes-inclusive sorted set.
	h := AppendConvexHull(nil, nil, []Vec2{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) > 4 {
		t.Errorf("collinear hull too large: %v", h)
	}
	if !PointInHull(Vec2{0, 0}, h) {
		t.Error("collinear hull should contain endpoint")
	}
}

func TestPointInHull(t *testing.T) {
	hull := AppendConvexHull(nil, nil, []Vec2{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	cases := []struct {
		p    Vec2
		want bool
	}{
		{Vec2{2, 2}, true},
		{Vec2{0, 0}, true},   // vertex
		{Vec2{2, 0}, true},   // edge
		{Vec2{-1, 2}, false}, // outside left
		{Vec2{5, 5}, false},
		{Vec2{2, 4.001}, false},
	}
	for _, c := range cases {
		if got := PointInHull(c.p, hull); got != c.want {
			t.Errorf("PointInHull(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// Property: every input point is inside its own convex hull.
func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		pts := make([]Vec2, n)
		for i := range pts {
			pts[i] = Vec2{r.Float64()*100 - 50, r.Float64()*100 - 50}
		}
		hull := AppendConvexHull(nil, nil, pts)
		for _, p := range pts {
			if !PointInHull(p, hull) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: hull vertices are in convex position (strictly CCW turns).
func TestConvexHullIsConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(100)
		pts := make([]Vec2, n)
		for i := range pts {
			pts[i] = Vec2{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		}
		hull := AppendConvexHull(nil, nil, pts)
		if len(hull) < 3 {
			continue
		}
		for i := range hull {
			a := hull[i]
			b := hull[(i+1)%len(hull)]
			c := hull[(i+2)%len(hull)]
			if cross(a, b, c) <= 0 {
				t.Fatalf("trial %d: hull not strictly convex at %d", trial, i)
			}
		}
	}
}

func TestTriangleThreshold(t *testing.T) {
	// Bimodal distribution: big peak near 0.1, small bump near 0.8.
	h := NewHistogram(0, 1, 100)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Add(0.1 + rng.NormFloat64()*0.02)
	}
	for i := 0; i < 300; i++ {
		h.Add(0.8 + rng.NormFloat64()*0.05)
	}
	th := h.TriangleThreshold()
	if th <= 0.12 || th >= 0.8 {
		t.Errorf("threshold = %v, want between the modes", th)
	}
}

func TestTriangleThresholdEdgeCases(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	if th := h.TriangleThreshold(); th != 0 {
		t.Errorf("empty histogram threshold = %v", th)
	}
	h.Add(0.55)
	th := h.TriangleThreshold()
	if math.Abs(th-h.BinCenter(5)) > 1e-9 {
		t.Errorf("single-bin threshold = %v", th)
	}
	// Out-of-range values are clamped, not dropped.
	h.Add(-5)
	h.Add(99)
	if h.Total() != 3 {
		t.Errorf("total = %d, want 3", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[9] != 1 {
		t.Error("clamping failed")
	}
}

// TestHistogramClampsEveryValue pins Add's bin for values whose position
// overflows int (they used to land in bin 0 on amd64), for ±Inf and NaN
// (bin 0), and holds every in-range value to the plain truncation.
func TestHistogramClampsEveryValue(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for _, c := range []struct {
		v   float64
		bin int
	}{
		{1e30, 9}, {math.Inf(1), 9}, {math.MaxFloat64, 9}, {1, 9}, {math.Nextafter(1, 0), 9},
		{-1e30, 0}, {math.Inf(-1), 0}, {-0.05, 0}, {math.NaN(), 0}, {0, 0}, {0.55, 5},
	} {
		h.Reset(0, 1, 10)
		h.Add(c.v)
		if h.Counts[c.bin] != 1 || h.Total() != 1 {
			t.Errorf("Add(%v): counts %v, total %d; want one in bin %d", c.v, h.Counts, h.Total(), c.bin)
		}
	}
	rng := rand.New(rand.NewSource(8))
	h.Reset(-3, 5, 37)
	want := make([]int, 37)
	for i := 0; i < 10000; i++ {
		v := -3 + rng.Float64()*8
		h.Add(v)
		want[min(int((v+3)/8*37), 36)]++
	}
	if !slices.Equal(h.Counts, want) {
		t.Errorf("in-range counts %v, want %v", h.Counts, want)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid histogram")
		}
	}()
	NewHistogram(1, 0, 10)
}
