package imgx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPlaneBasics(t *testing.T) {
	p := NewPlane(4, 3)
	p.Set(1, 2, 77)
	if p.At(1, 2) != 77 {
		t.Error("Set/At round trip failed")
	}
	// Border clamping.
	p.Set(0, 0, 5)
	if p.At(-3, -3) != 5 {
		t.Error("negative coords should clamp to (0,0)")
	}
	p.Set(3, 2, 9)
	if p.At(100, 100) != 9 {
		t.Error("large coords should clamp to bottom-right")
	}
	// Out-of-bounds writes are dropped.
	p.Set(-1, 0, 42)
	p.Set(4, 0, 42)
	if p.At(0, 0) != 5 {
		t.Error("out-of-bounds write corrupted plane")
	}
	q := p.Clone()
	q.Set(0, 0, 99)
	if p.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
	if len(p.Row(1)) != 4 {
		t.Error("Row length wrong")
	}
}

func TestPlanePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid size")
		}
	}()
	NewPlane(0, 5)
}

func TestRectOps(t *testing.T) {
	r := NewRect(2, 3, 4, 5) // [2,6)x[3,8)
	if r.W() != 4 || r.H() != 5 || r.Area() != 20 || r.Empty() {
		t.Errorf("basic geometry wrong: %+v", r)
	}
	s := Rect{4, 5, 10, 10}
	inter := r.Intersect(s)
	if inter != (Rect{4, 5, 6, 8}) {
		t.Errorf("Intersect = %+v", inter)
	}
	u := r.Union(s)
	if u != (Rect{2, 3, 10, 10}) {
		t.Errorf("Union = %+v", u)
	}
	if !r.Contains(2, 3) || r.Contains(6, 3) {
		t.Error("Contains boundary semantics wrong")
	}
	empty := Rect{5, 5, 5, 9}
	if !empty.Empty() || empty.Area() != 0 {
		t.Error("empty rect misreported")
	}
	if got := r.Union(empty); got != r {
		t.Errorf("Union with empty = %+v", got)
	}
	if got := empty.Union(r); got != r {
		t.Errorf("empty Union r = %+v", got)
	}
	clipped := Rect{-5, -5, 3, 4}.ClipTo(10, 10)
	if clipped != (Rect{0, 0, 3, 4}) {
		t.Errorf("ClipTo = %+v", clipped)
	}
	// Disjoint intersection is empty, not negative.
	d := Rect{0, 0, 2, 2}.Intersect(Rect{5, 5, 7, 7})
	if !d.Empty() {
		t.Errorf("disjoint Intersect = %+v", d)
	}
}

func TestIoU(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if v := a.IoU(a); v != 1 {
		t.Errorf("self IoU = %v", v)
	}
	b := Rect{5, 0, 15, 10}
	want := 50.0 / 150.0
	if v := a.IoU(b); math.Abs(v-want) > 1e-12 {
		t.Errorf("IoU = %v, want %v", v, want)
	}
	if v := a.IoU(Rect{20, 20, 30, 30}); v != 0 {
		t.Errorf("disjoint IoU = %v", v)
	}
}

func TestIoUSymmetricProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := NewRect(int(ax), int(ay), int(aw%32)+1, int(ah%32)+1)
		b := NewRect(int(bx), int(by), int(bw%32)+1, int(bh%32)+1)
		u := a.IoU(b)
		return u == b.IoU(a) && u >= 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a := NewPlane(8, 8)
	b := NewPlane(8, 8)
	if MSE(a, b) != 0 {
		t.Error("identical planes should have MSE 0")
	}
	if !math.IsInf(PSNR(0), 1) {
		t.Error("PSNR(0) should be +Inf")
	}
	for i := range b.Pix {
		b.Pix[i] = 10
	}
	if got := MSE(a, b); got != 100 {
		t.Errorf("MSE = %v, want 100", got)
	}
	want := 10 * math.Log10(255*255/100.0)
	if got := PSNR(100); math.Abs(got-want) > 1e-12 {
		t.Errorf("PSNR = %v, want %v", got, want)
	}
}

func TestRegionMSE(t *testing.T) {
	a := NewPlane(16, 16)
	b := a.Clone()
	for y := 0; y < 8; y++ { // distort top-left quadrant only
		for x := 0; x < 8; x++ {
			b.Set(x, y, 20)
		}
	}
	if got := RegionMSE(a, b, Rect{0, 0, 8, 8}); got != 400 {
		t.Errorf("distorted region MSE = %v", got)
	}
	if got := RegionMSE(a, b, Rect{8, 8, 16, 16}); got != 0 {
		t.Errorf("clean region MSE = %v", got)
	}
	if got := RegionMSE(a, b, Rect{-10, -10, -5, -5}); got != 0 {
		t.Errorf("empty region MSE = %v", got)
	}
	// Region clipping: region extends past the frame.
	if got := RegionMSE(a, b, Rect{0, 0, 100, 100}); got != 100 {
		t.Errorf("clipped region MSE = %v (want whole-frame 100)", got)
	}
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MSE(NewPlane(2, 2), NewPlane(3, 3))
}

func TestCopyBlock(t *testing.T) {
	src := NewPlane(8, 8)
	for i := range src.Pix {
		src.Pix[i] = uint8(i)
	}
	dst := NewPlane(8, 8)
	CopyBlock(dst, 2, 2, src, 0, 0, 4, 4)
	if dst.At(2, 2) != src.At(0, 0) || dst.At(5, 5) != src.At(3, 3) {
		t.Error("CopyBlock content wrong")
	}
	// Source clamping: reading past the border replicates edge pixels.
	dst2 := NewPlane(4, 4)
	CopyBlock(dst2, 0, 0, src, 6, 6, 4, 4)
	if dst2.At(3, 3) != src.At(7, 7) {
		t.Error("CopyBlock should clamp source reads")
	}
	// Destination clipping: writes beyond dst are dropped without panic.
	CopyBlock(dst2, 2, 2, src, 0, 0, 4, 4)
}

// copyBlockPerSample is CopyBlock as it was written before it went row-wise:
// every sample clamped through At, every write clipped on its own.
func copyBlockPerSample(dst *Plane, dx, dy int, src *Plane, sx, sy, w, h int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if tx, ty := dx+x, dy+y; tx >= 0 && tx < dst.W && ty >= 0 && ty < dst.H {
				dst.Pix[ty*dst.W+tx] = src.At(sx+x, sy+y)
			}
		}
	}
}

// TestCopyBlockMatchesPerSample: random rectangles hanging off any side of
// either plane, or missing it altogether, leave dst as the per-sample form
// leaves it — clamped reads, clipped writes, nothing else touched.
func TestCopyBlockMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randomPlane(rng, 37, 23)
	for trial := 0; trial < 5000; trial++ {
		got := randomPlane(rng, 1+rng.Intn(40), 1+rng.Intn(30))
		want := got.Clone()
		w, h := rng.Intn(50), rng.Intn(40)
		sx, sy := rng.Intn(src.W+2*w+20)-w-10, rng.Intn(src.H+2*h+20)-h-10
		dx, dy := rng.Intn(got.W+2*w+8)-w-4, rng.Intn(got.H+2*h+8)-h-4
		CopyBlock(got, dx, dy, src, sx, sy, w, h)
		copyBlockPerSample(want, dx, dy, src, sx, sy, w, h)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("trial %d: CopyBlock(dst %dx%d at %d,%d ← src at %d,%d, %dx%d) differs from the per-sample copy",
				trial, got.W, got.H, dx, dy, sx, sy, w, h)
		}
	}
}

func TestDrawRectOutline(t *testing.T) {
	p := NewPlane(10, 10)
	DrawRectOutline(p, Rect{2, 2, 6, 6}, 255)
	if p.At(2, 2) != 255 || p.At(5, 2) != 255 || p.At(2, 5) != 255 || p.At(5, 5) != 255 {
		t.Error("outline corners missing")
	}
	if p.At(3, 3) != 0 {
		t.Error("outline filled interior")
	}
	DrawRectOutline(p, Rect{20, 20, 30, 30}, 255) // fully clipped: no panic
}

func TestSAD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewPlane(32, 32)
	for i := range a.Pix {
		a.Pix[i] = uint8(rng.Intn(256))
	}
	b := a.Clone()
	if got := SAD(a, 8, 8, b, 8, 8, 16, 16, math.MaxInt); got != 0 {
		t.Errorf("self SAD = %d", got)
	}
	// Shifted content: SAD against the shifted position should be 0.
	c := NewPlane(32, 32)
	CopyBlock(c, 0, 0, a, 2, 0, 32, 32)
	if got := SAD(a, 8, 8, c, 6, 8, 16, 16, math.MaxInt); got != 0 {
		t.Errorf("shifted SAD = %d", got)
	}
	// Early exit returns a value >= threshold when cost is high.
	d := NewPlane(32, 32)
	for i := range d.Pix {
		d.Pix[i] = 255
	}
	if got := SAD(a, 8, 8, d, 8, 8, 16, 16, 100); got < 100 {
		t.Errorf("early-exit SAD = %d, want >= 100", got)
	}
	// Border-clamped path must match manual computation.
	got := SAD(a, 0, 0, b, -4, -4, 16, 16, math.MaxInt)
	want := 0
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			df := int(a.At(x, y)) - int(b.At(x-4, y-4))
			if df < 0 {
				df = -df
			}
			want += df
		}
	}
	if got != want {
		t.Errorf("clamped SAD = %d, want %d", got, want)
	}
}

func TestPlaneSeqTracksContent(t *testing.T) {
	p := NewPlane(4, 3)
	if p.Seq() != 0 {
		t.Errorf("fresh plane Seq = %d", p.Seq())
	}
	p.Set(1, 1, 9)
	if p.Seq() == 0 {
		t.Error("Set did not bump Seq")
	}
	s := p.Seq()
	p.Set(-1, 0, 9) // out of bounds: no content change, no bump
	if p.Seq() != s {
		t.Error("out-of-bounds Set bumped Seq")
	}
	p.Pix[0] = 42 // direct write: caller's responsibility
	p.Bump()
	if p.Seq() != s+1 {
		t.Errorf("Bump moved Seq from %d to %d", s, p.Seq())
	}
}
