package imgx

import (
	"math/rand"
	"testing"
)

// sadNaive is the reference scalar implementation SAD must match bit-for-bit,
// including the row-granular early-exit contract: the partial sum is compared
// against earlyExit after each completed row, never mid-row.
func sadNaive(a *Plane, ax, ay int, b *Plane, bx, by, w, h, earlyExit int) int {
	sum := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(a.Pix[(ay+y)*a.W+ax+x]) - int(b.At(bx+x, by+y))
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

func randomPlane(rng *rand.Rand, w, h int) *Plane {
	p := NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = uint8(rng.Intn(256))
	}
	return p
}

// TestSADMatchesNaive cross-checks the restructured SAD against the naive
// loop over randomized block sizes, positions (interior and border-clamped)
// and early-exit thresholds.
func TestSADMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomPlane(rng, 64, 48)
	b := randomPlane(rng, 64, 48)
	sizes := [][2]int{{16, 16}, {8, 8}, {16, 8}, {8, 16}, {4, 4}, {5, 7}, {24, 16}, {1, 1}}
	for trial := 0; trial < 5000; trial++ {
		wh := sizes[rng.Intn(len(sizes))]
		w, h := wh[0], wh[1]
		ax := rng.Intn(a.W - w + 1)
		ay := rng.Intn(a.H - h + 1)
		// b positions range off-plane to exercise the clamped path.
		bx := rng.Intn(b.W+32) - 16
		by := rng.Intn(b.H+32) - 16
		var early int
		switch rng.Intn(3) {
		case 0:
			early = 1 << 30
		case 1:
			early = rng.Intn(w * h * 128)
		default:
			early = rng.Intn(256)
		}
		got := SAD(a, ax, ay, b, bx, by, w, h, early)
		want := sadNaive(a, ax, ay, b, bx, by, w, h, early)
		if got != want {
			t.Fatalf("trial %d: SAD(%d,%d vs %d,%d %dx%d early=%d) = %d, naive = %d",
				trial, ax, ay, bx, by, w, h, early, got, want)
		}
	}
}

// TestSADIdenticalBlocks pins the trivial invariants.
func TestSADIdenticalBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomPlane(rng, 32, 32)
	if got := SAD(a, 4, 4, a, 4, 4, 16, 16, 1<<30); got != 0 {
		t.Fatalf("SAD of block with itself = %d, want 0", got)
	}
}

func BenchmarkSAD(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pa := randomPlane(rng, 320, 192)
	pb := randomPlane(rng, 320, 192)
	b.Run("16x16", func(b *testing.B) {
		b.SetBytes(16 * 16)
		for i := 0; i < b.N; i++ {
			SAD(pa, 64, 64, pb, 67, 62, 16, 16, 1<<30)
		}
	})
	// The common case inside a search: the candidate is abandoned once its
	// partial sum passes the incumbent's, here on the fourth row.
	exit := SAD(pa, 64, 64, pb, 67, 62, 16, 4, 1<<30)
	b.Run("16x16-exit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SAD(pa, 64, 64, pb, 67, 62, 16, 16, exit)
		}
	})
	b.Run("16x16-clamped", func(b *testing.B) {
		b.SetBytes(16 * 16)
		for i := 0; i < b.N; i++ {
			SAD(pa, 0, 0, pb, -5, -3, 16, 16, 1<<30)
		}
	})
	b.Run("8x8", func(b *testing.B) {
		b.SetBytes(8 * 8)
		for i := 0; i < b.N; i++ {
			SAD(pa, 64, 64, pb, 67, 62, 8, 8, 1<<30)
		}
	})
}
