package codec

import (
	"math/rand"
	"testing"

	"dive/internal/imgx"
)

// intraBodies are the two bodies of the intra mode scorer: the Go
// specification and the dispatched kernel (the SSE2 body on amd64).
var intraBodies = []struct {
	name string
	sad  func(cur []uint8, stride int, top, left *[blockSize]uint8, dc uint8) (sadDC, sadV, sadH int)
}{
	{"go", intraSADGo},
	{"kernel", intraSAD},
}

// naiveIntraSAD scores the three predictions one pixel at a time.
func naiveIntraSAD(cur []uint8, stride int, top, left *[blockSize]uint8, dc uint8) [3]int {
	var s [3]int
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			v := int(cur[y*stride+x])
			s[0] += absInt(v - int(dc))
			s[1] += absInt(v - int(top[x]))
			s[2] += absInt(v - int(left[y]))
		}
	}
	return s
}

// checkIntraSAD holds both bodies to naiveIntraSAD on the block at cur[0:].
func checkIntraSAD(t *testing.T, name string, cur []uint8, stride int, top, left *[blockSize]uint8, dc uint8) {
	t.Helper()
	want := naiveIntraSAD(cur, stride, top, left, dc)
	for _, body := range intraBodies {
		d, v, h := body.sad(cur, stride, top, left, dc)
		if got := [3]int{d, v, h}; got != want {
			t.Fatalf("%s stride %d: %s body scores (DC, V, H) = %v, want %v", name, stride, body.name, got, want)
		}
	}
}

// TestIntraSADExtremes scores blocks at the ends of the byte range against
// predictions at the other end — 64·255 = 16 320 in every mode, the largest
// sum — and at the same end, then noise against edges of every value, at
// strides of one row and wider, with the block flush against the slice's
// end.
func TestIntraSADExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, stride := range []int{blockSize, 9, 48, 1920} {
		n := (blockSize-1)*stride + blockSize
		for _, c := range []struct {
			name     string
			pix, ref uint8
		}{{"255 vs 0", 255, 0}, {"0 vs 255", 0, 255}, {"0 vs 0", 0, 0}, {"255 vs 255", 255, 255}} {
			cur := make([]uint8, n)
			for i := range cur {
				cur[i] = c.pix
			}
			var top, left [blockSize]uint8
			for i := range top {
				top[i], left[i] = c.ref, c.ref
			}
			checkIntraSAD(t, c.name, cur, stride, &top, &left, c.ref)
		}
		for trial := 0; trial < 200; trial++ {
			cur := make([]uint8, n)
			rng.Read(cur)
			var top, left [blockSize]uint8
			rng.Read(top[:])
			rng.Read(left[:])
			checkIntraSAD(t, "noise", cur, stride, &top, &left, uint8(trial))
		}
	}
}

// TestChooseIntraTiesAndMissingEdges drives both bodies through the tie
// rules on a 16×16 frame, whose four blocks are the corner (no edge), the
// top row (no top), the left column (no left) and an interior block:
//
//   - all three scores equal ("flat", "checkerboard"): DC wins;
//   - vertical and horizontal equal and under DC ("symmetric", interior):
//     vertical wins;
//   - a missing edge is scored against its zero fill and never picked, even
//     when that score is the smallest ("zero" and "symmetric" at the
//     corner).
func TestChooseIntraTiesAndMissingEdges(t *testing.T) {
	const w = 2 * blockSize
	cases := []struct {
		name      string
		cur, edge func(x, y int) uint8
		modes     [4]int // corner, top row, left column, interior
	}{
		// The block equals the DC of a flat edge: every score is zero.
		{"flat", func(x, y int) uint8 { return 77 }, func(x, y int) uint8 { return 77 }, [4]int{}},
		// Zero content and a zero edge: at the frame border the missing
		// edge's zero fill predicts the block exactly, DC (128) does not.
		{"zero", func(x, y int) uint8 { return 0 }, func(x, y int) uint8 { return 0 }, [4]int{}},
		// Content symmetric under transpose, edges equal: V ties H.
		{"symmetric", func(x, y int) uint8 { return uint8(x*x + y*y) }, func(x, y int) uint8 { return uint8(x*x + y*y) },
			[4]int{intraModeDC, intraModeHorizontal, intraModeVertical, intraModeVertical}},
		// A 0/255 checkerboard under 255 edges: 32 × 255 in every mode.
		{"checkerboard", func(x, y int) uint8 { return uint8(255 * ((x + y) & 1)) }, func(x, y int) uint8 { return 255 }, [4]int{}},
	}
	for _, c := range cases {
		cur, recon := imgx.NewPlane(w, w), imgx.NewPlane(w, w)
		for y := 0; y < w; y++ {
			for x := 0; x < w; x++ {
				cur.Pix[y*w+x] = c.cur(x%blockSize, y%blockSize)
				recon.Pix[y*w+x] = c.edge(x%blockSize, y%blockSize)
			}
		}
		// The edges the right and lower blocks read: the last row and
		// column of each block, set from the same rule so V and H match.
		for k := 0; k < w; k++ {
			recon.Pix[(blockSize-1)*w+k] = c.edge(k%blockSize, 0)
			recon.Pix[k*w+blockSize-1] = c.edge(k%blockSize, 0)
		}
		for k, at := range [][2]int{{0, 0}, {blockSize, 0}, {0, blockSize}, {blockSize, blockSize}} {
			px, py := at[0], at[1]
			want := c.modes[k]
			if m := chooseIntraMode(cur, recon, px, py); m != want {
				t.Fatalf("%s block (%d,%d): per-pixel chooser picks %d, the case is built for %d", c.name, px, py, m, want)
			}
			for _, body := range intraBodies {
				e := loadIntraEdge(recon, px, py)
				if m := e.choose(body.sad(cur.Pix[py*w+px:], w, &e.top, &e.left, e.dc)); m != want {
					t.Errorf("%s block (%d,%d): %s body chooses %d, per-pixel chooser %d", c.name, px, py, body.name, m, want)
				}
			}
		}
	}
}

// FuzzChooseIntra fills a 16×16 current frame and its reconstruction from
// the fuzzer's bytes (missing bytes read as zero, so short inputs make
// flat, tying blocks) and holds every body's mode, at each of the four
// block positions, to the per-pixel chooser, and its scores to
// naiveIntraSAD.
func FuzzChooseIntra(f *testing.F) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{0, 64, 300, 512} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const w = 2 * blockSize
		cur, recon := imgx.NewPlane(w, w), imgx.NewPlane(w, w)
		copy(cur.Pix, data)
		if len(data) > len(cur.Pix) {
			copy(recon.Pix, data[len(cur.Pix):])
		}
		for _, at := range [][2]int{{0, 0}, {blockSize, 0}, {0, blockSize}, {blockSize, blockSize}} {
			px, py := at[0], at[1]
			e := loadIntraEdge(recon, px, py)
			block := cur.Pix[py*w+px:]
			checkIntraSAD(t, "fuzz", block, w, &e.top, &e.left, e.dc)
			want := chooseIntraMode(cur, recon, px, py)
			for _, body := range intraBodies {
				if m := e.choose(body.sad(block, w, &e.top, &e.left, e.dc)); m != want {
					t.Fatalf("block (%d,%d): %s body chooses %d, per-pixel chooser %d", px, py, body.name, m, want)
				}
			}
		}
	})
}
