package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dive/internal/imgx"
)

// randomFrame builds a frame with mixed smooth and noisy content.
func randomFrame(w, h int, rng *rand.Rand) *imgx.Plane {
	p := imgx.NewPlane(w, h)
	base := rng.Intn(200)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := base + (x*y)%60 + rng.Intn(30)
			if v > 255 {
				v = 255
			}
			p.Pix[y*w+x] = uint8(v)
		}
	}
	return p
}

// Property: for any frame sequence and any QP, the decoder output is
// bit-exact with the encoder's reconstruction — the fundamental codec
// contract that keeps agent and server in sync.
func TestPropertyDecoderMatchesEncoderRecon(t *testing.T) {
	f := func(seed int64, qpRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		qp := int(qpRaw % 52)
		cfg := DefaultConfig(48, 32)
		cfg.GoPSize = 3
		enc, err := NewEncoder(cfg)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(cfg)
		if err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			frame := randomFrame(48, 32, rng)
			ef, err := enc.Encode(frame, EncodeOptions{BaseQP: qp})
			if err != nil {
				return false
			}
			df, err := dec.Decode(ef.Data)
			if err != nil {
				return false
			}
			if imgx.MSE(df.Image, enc.Reconstructed()) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: reconstruction error is bounded by the quantizer — per-pixel
// error stays well under Qstep plus rounding slack.
func TestPropertyReconErrorBoundedByQP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, qp := range []int{0, 10, 25, 40, 51} {
		enc, _ := NewEncoder(DefaultConfig(48, 32))
		frame := randomFrame(48, 32, rng)
		if _, err := enc.Encode(frame, EncodeOptions{BaseQP: qp}); err != nil {
			t.Fatal(err)
		}
		mse := imgx.MSE(frame, enc.Reconstructed())
		// Uniform quantization noise bound: MSE ≈ Qstep²/12 per
		// coefficient; allow a generous 2× factor for clipping and DC
		// prediction effects.
		bound := qstepTable[qp]*qstepTable[qp]/6 + 4
		if mse > bound {
			t.Errorf("QP %d: MSE %v exceeds bound %v", qp, mse, bound)
		}
	}
}

// Property: the decoder never panics on corrupted bitstreams; it returns an
// error or (for benign corruption) a decodable frame.
func TestPropertyDecoderRobustToCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	enc, _ := NewEncoder(DefaultConfig(48, 32))
	frame := randomFrame(48, 32, rng)
	ef, err := enc.Encode(frame, EncodeOptions{BaseQP: 24})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, len(ef.Data))
		copy(data, ef.Data)
		// Flip up to 8 random bits.
		for k := 0; k < 1+rng.Intn(8); k++ {
			i := rng.Intn(len(data))
			data[i] ^= 1 << uint(rng.Intn(8))
		}
		dec, _ := NewDecoder(DefaultConfig(48, 32))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decoder panicked: %v", trial, r)
				}
			}()
			dec.Decode(data) // error or success are both acceptable
		}()
	}
	// Truncations must error, never panic.
	for cut := 0; cut < len(ef.Data); cut += 7 {
		dec, _ := NewDecoder(DefaultConfig(48, 32))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d: decoder panicked: %v", cut, r)
				}
			}()
			dec.Decode(ef.Data[:cut])
		}()
	}
}

// Property: all five motion search strategies return vectors within the
// predictor-centered window and report a cost consistent with the actual
// SAD at the returned vector.
func TestPropertySearchRespectsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cur := randomFrame(96, 64, rng)
	ref := randomFrame(96, 64, rng)
	for _, m := range AllMEMethods() {
		for trial := 0; trial < 10; trial++ {
			pred := MV{int16(rng.Intn(9) - 4), int16(rng.Intn(9) - 4)}
			mbx := MBSize * (1 + rng.Intn(3))
			mby := MBSize * (1 + rng.Intn(2))
			mv, cost, _ := searchInteger(cur, ref, mbx, mby, pred, m, 8)
			if absInt(int(mv.X)-int(pred.X)) > 8 || absInt(int(mv.Y)-int(pred.Y)) > 8 {
				t.Fatalf("%v: MV %v outside window around %v", m, mv, pred)
			}
			if cost < 0 {
				t.Fatalf("%v: negative cost", m)
			}
		}
	}
}

// Property: exhaustive search is never beaten (in rate-distortion cost) by
// the heuristic searches for the same predictor, since it evaluates every
// candidate they can reach.
func TestPropertyESAIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomFrame(96, 64, rng)
	ref := base.Clone()
	// Add noise so the cost surface is non-trivial.
	cur := randomFrame(96, 64, rng)
	for i := range cur.Pix {
		cur.Pix[i] = uint8((int(base.Pix[i]) + int(cur.Pix[i])) / 2)
	}
	for trial := 0; trial < 20; trial++ {
		mbx := MBSize * rng.Intn(96/MBSize)
		mby := MBSize * rng.Intn(64/MBSize)
		pred := MV{}
		_, esaCost, _ := searchInteger(cur, ref, mbx, mby, pred, MEEsa, 6)
		for _, m := range []MEMethod{MEDia, MEHex, MEUmh} {
			_, c, _ := searchInteger(cur, ref, mbx, mby, pred, m, 6)
			if c < esaCost {
				t.Fatalf("%v cost %d beat ESA %d at (%d,%d)", m, c, esaCost, mbx, mby)
			}
		}
	}
}

// Property: header QPs decoded by the decoder equal the per-MB QPs the
// encoder reported.
func TestPropertyQPMapSurvivesTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := DefaultConfig(48, 48)
	enc, _ := NewEncoder(cfg)
	mbw, mbh := enc.MBDims()
	frame := randomFrame(48, 48, rng)
	offsets := make([]int, mbw*mbh)
	for i := range offsets {
		offsets[i] = rng.Intn(20)
	}
	ef, err := enc.Encode(frame, EncodeOptions{BaseQP: 10, QPOffsets: offsets})
	if err != nil {
		t.Fatal(err)
	}
	for i, qp := range ef.QPs {
		if qp != clampQP(10+offsets[i]) {
			t.Fatalf("MB %d: QP %d, want %d", i, qp, 10+offsets[i])
		}
	}
	dec, _ := NewDecoder(cfg)
	if _, err := dec.Decode(ef.Data); err != nil {
		t.Fatal(err)
	}
}
