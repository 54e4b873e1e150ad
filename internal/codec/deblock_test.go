package codec

import (
	"math/rand"
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
