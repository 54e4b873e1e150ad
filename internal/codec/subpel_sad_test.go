package codec

import (
	"math/rand"
	"testing"

	"dive/internal/imgx"
)

// sadHalfNaive mirrors the original per-pixel sampleHalf implementation of
// sadHalf, including the row-granular early exit; the restructured interior
// fast path must match it bit-for-bit.
func sadHalfNaive(a *imgx.Plane, ax, ay int, b *imgx.Plane, hbx, hby, w, h, earlyExit int) int {
	sum := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(a.Pix[(ay+y)*a.W+ax+x]) - int(sampleHalf(b, hbx+2*x, hby+2*y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum >= earlyExit {
			return sum
		}
	}
	return sum
}

func randPlane(rng *rand.Rand, w, h int) *imgx.Plane {
	p := imgx.NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = uint8(rng.Intn(256))
	}
	return p
}

// TestSadHalfMatchesNaive cross-checks sadHalf — the word kernel over
// in-bounds taps and the same kernel over a border-clamped patch — against
// the naive sampleHalf loop and the per-pixel interior loop it replaced, over
// randomized macroblock positions, all four half-pel phases, and early-exit
// thresholds.
func TestSadHalfMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := randPlane(rng, 80, 64)
	b := randPlane(rng, 80, 64)
	check := func(ax, ay, hbx, hby, early int) {
		t.Helper()
		got := sadHalf(a, ax, ay, b, hbx, hby, early)
		if want := sadHalfNaive(a, ax, ay, b, hbx, hby, MBSize, MBSize, early); got != want {
			t.Fatalf("sadHalf(%d,%d vs half %d,%d early=%d) = %d, naive = %d",
				ax, ay, hbx, hby, early, got, want)
		}
		if want := oracleSadHalf(a, ax, ay, b, hbx, hby, MBSize, MBSize, early); got != want {
			t.Fatalf("sadHalf(%d,%d vs half %d,%d early=%d) = %d, previous kernel = %d",
				ax, ay, hbx, hby, early, got, want)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		ax := rng.Intn(a.W-MBSize) &^ 1
		ay := rng.Intn(a.H-MBSize) &^ 1
		hbx := rng.Intn(2*(b.W+16)) - 16
		hby := rng.Intn(2*(b.H+16)) - 16
		early := 1 << 30
		if trial%4 == 0 {
			early = rng.Intn(MBSize * MBSize * 64)
		}
		check(ax, ay, hbx, hby, early)
	}
	// The edges of the in-bounds region, on every odd phase: the last tap
	// column and row sit on, one short of and one past the plane's last
	// (ix0+16 == W−1 and iy0+16 == H−1 are the last positions the previous
	// kernel took whole), and likewise around the first.
	for _, phase := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
		for _, ix0 := range []int{-2, -1, 0, 1, b.W - 18, b.W - 17, b.W - 16, b.W - 15} {
			for _, iy0 := range []int{-2, -1, 0, 1, b.H - 18, b.H - 17, b.H - 16, b.H - 15} {
				for _, early := range []int{1 << 30, 1, 700, 4000, 12000} {
					check(32, 16, 2*ix0+phase[0], 2*iy0+phase[1], early)
				}
			}
		}
	}
}

// BenchmarkSadHalf measures one macroblock candidate on each odd phase —
// horizontal and vertical two-tap, diagonal four-tap — with all taps in
// bounds, and the diagonal phase through the border patch.
func BenchmarkSadHalf(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pa := randPlane(rng, 320, 192)
	pb := randPlane(rng, 320, 192)
	for _, c := range []struct {
		name     string
		hbx, hby int
	}{
		{"H", 2*67 + 1, 2 * 62},
		{"V", 2 * 67, 2*62 + 1},
		{"HV", 2*67 + 1, 2*62 + 1},
		{"HV-border", 2*(320-16) + 1, 2*62 + 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = sadHalf(pa, 64, 64, pb, c.hbx, c.hby, 1<<30)
			}
		})
	}
}
