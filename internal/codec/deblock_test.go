package codec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dive/internal/imgx"
)

func TestDeblockThresholdsMonotone(t *testing.T) {
	for qp := 1; qp <= 51; qp++ {
		if deblockAlpha(qp) < deblockAlpha(qp-1) {
			t.Fatalf("alpha not monotone at %d", qp)
		}
		if deblockBeta(qp) < deblockBeta(qp-1) {
			t.Fatalf("beta not monotone at %d", qp)
		}
	}
	if deblockAlpha(0) < 2 || deblockAlpha(51) > 60 {
		t.Error("alpha clamp wrong")
	}
}

func TestDeblockSmoothsArtificialBlockEdge(t *testing.T) {
	// A small step across an 8px boundary (quantization-artifact sized)
	// must shrink; pixels away from the boundary stay put.
	p := imgx.NewPlane(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if x < 8 {
				p.Set(x, y, 100)
			} else {
				p.Set(x, y, 110)
			}
		}
	}
	qps := []int{30, 30, 30, 30} // 2x2 MBs at QP 30
	before := int(p.At(8, 16)) - int(p.At(7, 16))
	deblockFrame(p, qps, 2)
	after := int(p.At(8, 16)) - int(p.At(7, 16))
	if absInt(after) >= absInt(before) {
		t.Errorf("edge step %d not reduced (now %d)", before, after)
	}
	if p.At(3, 16) != 100 || p.At(20, 16) != 110 {
		t.Error("interior pixels touched")
	}
}

func TestDeblockPreservesRealEdges(t *testing.T) {
	// A strong step (real structure) must be left alone.
	p := imgx.NewPlane(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if x < 8 {
				p.Set(x, y, 40)
			} else {
				p.Set(x, y, 200)
			}
		}
	}
	qps := []int{20, 20, 20, 20}
	deblockFrame(p, qps, 2)
	if p.At(7, 16) != 40 || p.At(8, 16) != 200 {
		t.Errorf("real edge modified: %d | %d", p.At(7, 16), p.At(8, 16))
	}
}

func TestDeblockImprovesHighQPQuality(t *testing.T) {
	// End to end: at high QP, enabling the loop filter should not hurt
	// (and usually helps) reconstruction PSNR on smooth content.
	src := imgx.NewPlane(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			src.Set(x, y, uint8(80+x+y/2))
		}
	}
	mse := func(deblock bool) float64 {
		cfg := DefaultConfig(96, 96)
		cfg.Deblock = deblock
		enc, _ := NewEncoder(cfg)
		if _, err := enc.Encode(src, EncodeOptions{BaseQP: 38}); err != nil {
			t.Fatal(err)
		}
		return imgx.MSE(src, enc.Reconstructed())
	}
	with, without := mse(true), mse(false)
	if with > without*1.05 {
		t.Errorf("deblocked MSE %v clearly worse than unfiltered %v", with, without)
	}
}

func TestDeblockedStreamsStayBitExact(t *testing.T) {
	// The core in-loop contract: with the filter on, decoder output still
	// matches encoder reconstruction bit for bit across a GoP.
	rng := rand.New(rand.NewSource(77))
	cfg := DefaultConfig(48, 48)
	cfg.GoPSize = 3
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	for i := 0; i < 6; i++ {
		frame := randomFrame(48, 48, rng)
		ef, err := enc.Encode(frame, EncodeOptions{BaseQP: 33})
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		if imgx.MSE(df.Image, enc.Reconstructed()) != 0 {
			t.Fatalf("frame %d: decoder drift with deblocking", i)
		}
	}
}

func TestSampleHalfInterpolation(t *testing.T) {
	p := imgx.NewPlane(4, 4)
	p.Set(0, 0, 10)
	p.Set(1, 0, 30)
	p.Set(0, 1, 50)
	p.Set(1, 1, 70)
	if v := sampleHalf(p, 0, 0); v != 10 {
		t.Errorf("integer sample = %d", v)
	}
	if v := sampleHalf(p, 1, 0); v != 20 {
		t.Errorf("horizontal half = %d, want 20", v)
	}
	if v := sampleHalf(p, 0, 1); v != 30 {
		t.Errorf("vertical half = %d, want 30", v)
	}
	if v := sampleHalf(p, 1, 1); v != 40 {
		t.Errorf("diagonal half = %d, want 40", v)
	}
}

func TestHalfPelFindsSubPixelShift(t *testing.T) {
	// Content shifted by exactly half a pixel (synthesized by averaging
	// neighbors) should yield odd motion vectors.
	rng := rand.New(rand.NewSource(5))
	base := randomFrame(64, 64, rng)
	shifted := imgx.NewPlane(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			shifted.Set(x, y, uint8((int(base.At(x, y))+int(base.At(x-1, y))+1)/2))
		}
	}
	cfg := DefaultConfig(64, 64)
	enc, _ := NewEncoder(cfg)
	if _, err := enc.Encode(base, EncodeOptions{BaseQP: 4}); err != nil {
		t.Fatal(err)
	}
	ef, err := enc.Encode(shifted, EncodeOptions{BaseQP: 4})
	if err != nil {
		t.Fatal(err)
	}
	odd := 0
	total := 0
	for by := 1; by < ef.MBH-1; by++ {
		for bx := 1; bx < ef.MBW-1; bx++ {
			mv := ef.Motion.At(bx, by)
			total++
			if mv.X == -1 && mv.Y == 0 {
				odd++
			}
		}
	}
	if odd < total/2 {
		t.Errorf("only %d/%d MBs found the half-pel shift", odd, total)
	}
}

func TestIntraModesImproveGradients(t *testing.T) {
	// A vertical gradient is predicted perfectly by the horizontal mode;
	// a horizontal gradient by the vertical mode. Either way the bit cost
	// should be well below DC-only prediction.
	vert := imgx.NewPlane(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			vert.Set(x, y, uint8(40+3*y))
		}
	}
	enc, _ := NewEncoder(DefaultConfig(64, 64))
	ef, err := enc.Encode(vert, EncodeOptions{BaseQP: 12})
	if err != nil {
		t.Fatal(err)
	}
	if psnr := imgx.PSNR(imgx.MSE(vert, enc.Reconstructed())); psnr < 40 {
		t.Errorf("gradient I-frame PSNR %v", psnr)
	}
	// The gradient compresses to very little with directional modes.
	if ef.NumBits > 64*64 {
		t.Errorf("gradient I-frame used %d bits", ef.NumBits)
	}
	// Decoder agrees bit-exactly.
	dec, _ := NewDecoder(DefaultConfig(64, 64))
	df, err := dec.Decode(ef.Data)
	if err != nil {
		t.Fatal(err)
	}
	if imgx.MSE(df.Image, enc.Reconstructed()) != 0 {
		t.Error("intra-mode decode drift")
	}
}

func TestChooseIntraModePicksDirections(t *testing.T) {
	recon := imgx.NewPlane(32, 32)
	// Top row bright, left column dark: a block whose content continues
	// the top row should pick vertical.
	for x := 0; x < 32; x++ {
		recon.Set(x, 7, uint8(100+x*4))
	}
	cur := imgx.NewPlane(32, 32)
	for y := 8; y < 16; y++ {
		for x := 8; x < 16; x++ {
			cur.Set(x, y, uint8(100+x*4))
		}
	}
	var pred [blockSize * blockSize]uint8
	if m := chooseIntra(cur, recon, 8, 8, &pred); m != intraModeVertical {
		t.Errorf("mode = %d, want vertical", m)
	}
	// Content continuing the left column picks horizontal.
	recon2 := imgx.NewPlane(32, 32)
	for y := 0; y < 32; y++ {
		recon2.Set(7, y, uint8(60+y*5))
	}
	cur2 := imgx.NewPlane(32, 32)
	for y := 8; y < 16; y++ {
		for x := 8; x < 16; x++ {
			cur2.Set(x, y, uint8(60+y*5))
		}
	}
	if m := chooseIntra(cur2, recon2, 8, 8, &pred); m != intraModeHorizontal {
		t.Errorf("mode = %d, want horizontal", m)
	}
}

// deblockBodies are the two bodies of the span filter: the Go specification
// and the dispatched kernel (the SSE2 body on amd64).
var deblockBodies = []struct {
	name   string
	filter func(pix []uint8, o, across, along, alpha, beta int)
}{
	{"go", filterSpanGo},
	{"kernel", filterSpan},
}

// spanShape lays a span out in a buffer that begins at its first p1 and ends
// at its last q1, as at the frame border: a horizontal edge (four rows of 16
// positions, stride apart) or a vertical one (16 rows of four bytes).
type spanShape struct {
	name                string
	across, along, o, n int
}

var spanShapes = []spanShape{
	{"horizontal", 16, 1, 32, 64},
	{"horizontal", 21, 1, 42, 79},
	{"vertical", 1, 4, 2, 64},
	{"vertical", 1, 9, 2, 139},
}

// checkDeblockSpan writes quads[k] = (p1, p0, q0, q1) into position k of a
// span laid out as sh, fills every other byte with noise, runs each body on
// its own copy at (alpha, beta) and requires the same bytes from both.
func checkDeblockSpan(t *testing.T, name string, sh spanShape, quads *[MBSize][4]uint8, alpha, beta int, rng *rand.Rand) {
	t.Helper()
	buf := make([]uint8, sh.n)
	rng.Read(buf)
	for k, q := range quads {
		o := sh.o + k*sh.along
		for j, v := range q {
			buf[o+(j-2)*sh.across] = v
		}
	}
	var want []uint8
	for _, body := range deblockBodies {
		got := slices.Clone(buf)
		body.filter(got, sh.o, sh.across, sh.along, alpha, beta)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("%s %s stride %d α %d β %d: %s byte %d = %d, go %d",
				name, sh.name, sh.across*sh.along, alpha, beta, body.name, i, got[i], want[i])
		}
	}
}

// deblockQuads returns (p1, p0, q0, q1) at the edges of the filter
// condition for (alpha, beta): |q0 − p0| of 0, 1, α − 1 and α, |p1 − p0|
// and |q1 − q0| of β − 1 and β, small negative differences whose sum
// 3·(q0 − p0) + p1 − q1 leaves a remainder mod 8 — all of it from p0 = 0,
// 1, 128, 254 and 255, clamped to bytes, so results reach 0 and 255.
func deblockQuads(alpha, beta int) [][4]uint8 {
	b := func(v int) uint8 { return uint8(min(max(v, 0), 255)) }
	var quads [][4]uint8
	for _, p0 := range []int{0, 1, 128, 254, 255} {
		for _, diff := range []int{0, 1, -1, -3, alpha - 1, 1 - alpha, alpha, -alpha} {
			for _, dp := range []int{0, 1, -2, beta - 1, 1 - beta, beta, -beta} {
				for _, dq := range []int{0, -1, 3, beta - 1, 1 - beta, beta, -beta} {
					q0 := p0 + diff
					quads = append(quads, [4]uint8{b(p0 + dp), b(p0), b(q0), b(q0 + dq)})
				}
			}
		}
	}
	return quads
}

// TestDeblockBodiesMatch holds the kernel to the Go body at every QP's
// thresholds, in both directions and at the frame border, on deblockQuads
// in order (spans of like positions, some all filtered, some all skipped)
// and shuffled. The tables never let d reach ±β (|d| ≤ 20 < 24 at QP 51),
// so thresholds off the tables, up to the body's 256, exercise the clamp.
func TestDeblockBodiesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	type thresholds struct{ alpha, beta int }
	var ths []thresholds
	for qp := 0; qp < 52; qp++ {
		ths = append(ths, thresholds{deblockAlpha(qp), deblockBeta(qp)})
	}
	ths = append(ths, thresholds{200, 2}, thresholds{256, 5}, thresholds{90, 1}, thresholds{256, 256}, thresholds{1, 256})
	for _, th := range ths {
		quads := deblockQuads(th.alpha, th.beta)
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				rng.Shuffle(len(quads), func(i, j int) { quads[i], quads[j] = quads[j], quads[i] })
			}
			for i := 0; i < len(quads); i += MBSize {
				var span [MBSize][4]uint8
				for k := range span {
					span[k] = quads[(i+k)%len(quads)]
				}
				for _, sh := range spanShapes {
					checkDeblockSpan(t, "quads", sh, &span, th.alpha, th.beta, rng)
				}
			}
		}
	}
}

// FuzzDeblock maps the fuzzer's bytes to a span — p0 and q0 of each
// position, then p1 − p0 and q1 − q0 as signed bytes, so that most
// positions sit near the thresholds — and holds the two bodies to each other
// at the thresholds qp picks, or at (alpha, beta) themselves when qp is 52
// or more. Missing bytes read as zero.
func FuzzDeblock(f *testing.F) {
	rng := rand.New(rand.NewSource(69))
	for _, n := range []int{0, 32, 64} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(uint8(n), uint8(0), uint8(0), seed)
	}
	f.Add(uint8(60), uint8(200), uint8(3), []byte{100, 140, 0, 0})
	f.Fuzz(func(t *testing.T, qp, alpha, beta uint8, data []byte) {
		rng := rand.New(rand.NewSource(70))
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		a, b := int(alpha)+1, int(beta)+1
		if qp < 52 {
			a, b = deblockAlpha(int(qp)), deblockBeta(int(qp))
		}
		var span [MBSize][4]uint8
		for k := range span {
			p0, q0 := at(k), at(MBSize+k)
			p1, q1 := p0+int(int8(at(2*MBSize+k))), q0+int(int8(at(3*MBSize+k)))
			span[k] = [4]uint8{uint8(min(max(p1, 0), 255)), uint8(p0), uint8(q0), uint8(min(max(q1, 0), 255))}
		}
		for _, sh := range spanShapes {
			checkDeblockSpan(t, "fuzz", sh, &span, a, b, rng)
		}
	})
}
