package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dive/internal/imgx"
)

// texturedFrame builds a frame with smooth gradients plus noise so the
// codec has realistic content to chew on.
func texturedFrame(w, h int, seed int64) *imgx.Plane {
	rng := rand.New(rand.NewSource(seed))
	p := imgx.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 96 + 64*math.Sin(float64(x)/17) + 48*math.Cos(float64(y)/11)
			v += rng.NormFloat64() * 3
			p.Set(x, y, clampPix(v))
		}
	}
	return p
}

// shiftFrame translates a frame by (dx, dy) with border clamping.
func shiftFrame(p *imgx.Plane, dx, dy int) *imgx.Plane {
	q := imgx.NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			q.Set(x, y, p.At(x-dx, y-dy))
		}
	}
	return q
}

func newTestEncoder(t *testing.T, w, h int) *Encoder {
	t.Helper()
	e, err := NewEncoder(DefaultConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(DefaultConfig(100, 96)); err == nil {
		t.Error("expected error for non-multiple-of-16 width")
	}
	cfg := DefaultConfig(64, 64)
	cfg.Method = MEMethod(99)
	if _, err := NewEncoder(cfg); err == nil {
		t.Error("expected error for bad ME method")
	}
	if _, err := NewDecoder(DefaultConfig(100, 96)); err == nil {
		t.Error("expected decoder error for bad size")
	}
}

func TestEncodeDecodeRoundTripMatchesRecon(t *testing.T) {
	w, h := 64, 48
	enc := newTestEncoder(t, w, h)
	dec, _ := NewDecoder(DefaultConfig(w, h))
	f0 := texturedFrame(w, h, 1)
	f1 := shiftFrame(f0, 3, 1)
	f2 := shiftFrame(f0, 6, 2)

	for i, f := range []*imgx.Plane{f0, f1, f2} {
		ef, err := enc.Encode(f, EncodeOptions{BaseQP: 20})
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Decoder output must be bit-exact with the encoder's recon.
		if imgx.MSE(df.Image, enc.Reconstructed()) != 0 {
			t.Fatalf("frame %d: decoder drift from encoder reconstruction", i)
		}
		wantType := PFrame
		if i == 0 {
			wantType = IFrame
		}
		if ef.Type != wantType || df.Type != wantType {
			t.Fatalf("frame %d type = %v/%v, want %v", i, ef.Type, df.Type, wantType)
		}
	}
}

func TestQualityImprovesWithLowerQP(t *testing.T) {
	w, h := 64, 64
	src := texturedFrame(w, h, 2)
	prevMSE := math.Inf(1)
	prevBits := 0
	for _, qp := range []int{44, 32, 20, 8} {
		enc := newTestEncoder(t, w, h)
		ef, err := enc.Encode(src, EncodeOptions{BaseQP: qp})
		if err != nil {
			t.Fatal(err)
		}
		mse := imgx.MSE(src, enc.Reconstructed())
		if mse > prevMSE {
			t.Errorf("QP %d: MSE %v worse than higher QP (%v)", qp, mse, prevMSE)
		}
		// Bits must grow (weakly) as QP drops.
		if ef.NumBits < prevBits {
			t.Errorf("QP %d: bits %d below higher-QP %d", qp, ef.NumBits, prevBits)
		}
		prevMSE, prevBits = mse, ef.NumBits
	}
	// Near-lossless at QP 0.
	enc := newTestEncoder(t, w, h)
	_, err := enc.Encode(src, EncodeOptions{BaseQP: 0})
	if err != nil {
		t.Fatal(err)
	}
	if psnr := imgx.PSNR(imgx.MSE(src, enc.Reconstructed())); psnr < 45 {
		t.Errorf("QP0 PSNR = %v, want near-lossless", psnr)
	}
}

func TestMotionEstimationFindsTranslation(t *testing.T) {
	w, h := 96, 96
	base := texturedFrame(w, h, 3)
	for _, m := range AllMEMethods() {
		cfg := DefaultConfig(w, h)
		cfg.Method = m
		enc, _ := NewEncoder(cfg)
		if _, err := enc.Encode(base, EncodeOptions{BaseQP: 8}); err != nil {
			t.Fatal(err)
		}
		shifted := shiftFrame(base, 5, -3)
		ef, err := enc.Encode(shifted, EncodeOptions{BaseQP: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Interior MBs should find MV ≈ (5, -3): block content moved right
		// and up means the match in the reference is at (-5, +3) pixels
		// (scaled by the sub-pel denominator). Half-pel refinement against
		// a quantized reference may legitimately land half a pixel off, so
		// accept vectors within one half-pel unit of truth.
		sc := int(ef.Motion.Scale)
		good, total := 0, 0
		for by := 1; by < ef.MBH-1; by++ {
			for bx := 1; bx < ef.MBW-1; bx++ {
				mv := ef.Motion.At(bx, by)
				total++
				dx := absInt(int(mv.X) + 5*sc)
				dy := absInt(int(mv.Y) - 3*sc)
				if dx <= sc/2 && dy <= sc/2 {
					good++
				}
			}
		}
		if float64(good) < 0.75*float64(total) {
			t.Errorf("%v: only %d/%d interior MBs found the true motion", m, good, total)
		}
	}
}

func TestSkipModeOnStaticContent(t *testing.T) {
	w, h := 64, 64
	src := texturedFrame(w, h, 4)
	enc := newTestEncoder(t, w, h)
	if _, err := enc.Encode(src, EncodeOptions{BaseQP: 12}); err != nil {
		t.Fatal(err)
	}
	// Identical frame: everything should skip and η should be 0.
	ef, err := enc.Encode(src, EncodeOptions{BaseQP: 12})
	if err != nil {
		t.Fatal(err)
	}
	skips := 0
	for _, m := range ef.Motion.Modes {
		if m == ModeSkip {
			skips++
		}
	}
	if skips < len(ef.Motion.Modes)*9/10 {
		t.Errorf("only %d/%d MBs skipped on a static frame", skips, len(ef.Motion.Modes))
	}
	if eta := ef.Motion.NonZeroRatio(); eta > 0.05 {
		t.Errorf("η = %v on static content, want ≈ 0", eta)
	}
	// Skipped frames are tiny.
	if ef.NumBits > w*h/4 {
		t.Errorf("static P-frame used %d bits", ef.NumBits)
	}
}

func TestNonZeroRatioOnMovingContent(t *testing.T) {
	w, h := 64, 64
	src := texturedFrame(w, h, 5)
	enc := newTestEncoder(t, w, h)
	if _, err := enc.Encode(src, EncodeOptions{BaseQP: 12}); err != nil {
		t.Fatal(err)
	}
	ef, err := enc.Encode(shiftFrame(src, 4, 0), EncodeOptions{BaseQP: 12})
	if err != nil {
		t.Fatal(err)
	}
	if eta := ef.Motion.NonZeroRatio(); eta < 0.5 {
		t.Errorf("η = %v on moving content, want high", eta)
	}
}

func TestRateControlMeetsBudget(t *testing.T) {
	w, h := 96, 96
	enc := newTestEncoder(t, w, h)
	src := texturedFrame(w, h, 6)
	for _, budget := range []int{20000, 8000, 3000} {
		ef, err := enc.Encode(texturedFrame(w, h, int64(budget)), EncodeOptions{TargetBits: budget})
		if err != nil {
			t.Fatal(err)
		}
		if ef.NumBits > budget && ef.BaseQP < 51 {
			t.Errorf("budget %d: used %d bits at QP %d", budget, ef.NumBits, ef.BaseQP)
		}
	}
	_ = src
}

func TestRateControlPrefersLowQP(t *testing.T) {
	// A huge budget should drive QP to (near) zero.
	w, h := 64, 64
	enc := newTestEncoder(t, w, h)
	ef, err := enc.Encode(texturedFrame(w, h, 7), EncodeOptions{TargetBits: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if ef.BaseQP != 0 {
		t.Errorf("unconstrained QP = %d, want 0", ef.BaseQP)
	}
}

func TestQPOffsetsChangeLocalQuality(t *testing.T) {
	w, h := 96, 96
	src := texturedFrame(w, h, 8)
	cfg := DefaultConfig(w, h)
	enc, _ := NewEncoder(cfg)
	mbw, mbh := enc.MBDims()
	// Left half clean (offset 0), right half crushed (offset +30).
	offsets := make([]int, mbw*mbh)
	for by := 0; by < mbh; by++ {
		for bx := 0; bx < mbw; bx++ {
			if bx >= mbw/2 {
				offsets[by*mbw+bx] = 30
			}
		}
	}
	ef, err := enc.Encode(src, EncodeOptions{BaseQP: 6, QPOffsets: offsets})
	if err != nil {
		t.Fatal(err)
	}
	rec := enc.Reconstructed()
	left := imgx.RegionMSE(src, rec, imgx.Rect{MinX: 0, MinY: 0, MaxX: w / 2, MaxY: h})
	right := imgx.RegionMSE(src, rec, imgx.Rect{MinX: w / 2, MinY: 0, MaxX: w, MaxY: h})
	if right < left*4 {
		t.Errorf("offset region MSE %v not clearly worse than clean %v", right, left)
	}
	// Per-MB QPs must reflect the offsets.
	if ef.QPs[0] != 6 || ef.QPs[mbw-1] != 36 {
		t.Errorf("QPs = %d,%d want 6,36", ef.QPs[0], ef.QPs[mbw-1])
	}
	// Decoder agrees.
	dec, _ := NewDecoder(cfg)
	df, err := dec.Decode(ef.Data)
	if err != nil {
		t.Fatal(err)
	}
	if imgx.MSE(df.Image, rec) != 0 {
		t.Error("decoder mismatch with QP offsets")
	}
}

func TestGoPStructure(t *testing.T) {
	w, h := 32, 32
	cfg := DefaultConfig(w, h)
	cfg.GoPSize = 3
	enc, _ := NewEncoder(cfg)
	var types []FrameType
	for i := 0; i < 7; i++ {
		ef, err := enc.Encode(texturedFrame(w, h, int64(i)), EncodeOptions{BaseQP: 24})
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, ef.Type)
	}
	want := []FrameType{IFrame, PFrame, PFrame, IFrame, PFrame, PFrame, IFrame}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("frame %d type = %v, want %v (got %v)", i, types[i], want[i], types)
		}
	}
	// ForceIFrame overrides.
	ef, _ := enc.Encode(texturedFrame(w, h, 99), EncodeOptions{BaseQP: 24, ForceIFrame: true})
	if ef.Type != IFrame {
		t.Error("ForceIFrame ignored")
	}
}

func TestEncodeValidation(t *testing.T) {
	enc := newTestEncoder(t, 32, 32)
	if _, err := enc.Encode(imgx.NewPlane(64, 64), EncodeOptions{}); err == nil {
		t.Error("expected size mismatch error")
	}
	if _, err := enc.Encode(imgx.NewPlane(32, 32), EncodeOptions{QPOffsets: make([]int, 3)}); err == nil {
		t.Error("expected offset length error")
	}
}

func TestDecoderErrors(t *testing.T) {
	dec, _ := NewDecoder(DefaultConfig(32, 32))
	if _, err := dec.Decode([]byte{}); err == nil {
		t.Error("expected error for empty stream")
	}
	if _, err := dec.Decode([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("expected error for garbage")
	}
	// P-frame before I-frame: craft by encoding two frames and feeding the
	// second first.
	enc := newTestEncoder(t, 32, 32)
	f := texturedFrame(32, 32, 1)
	enc.Encode(f, EncodeOptions{BaseQP: 20})
	ef2, _ := enc.Encode(shiftFrame(f, 2, 0), EncodeOptions{BaseQP: 20})
	if _, err := dec.Decode(ef2.Data); err == nil {
		t.Error("expected error for P-frame without reference")
	}
}

func TestAnalyzeMotionCaching(t *testing.T) {
	enc := newTestEncoder(t, 32, 32)
	f0 := texturedFrame(32, 32, 1)
	if mf := enc.AnalyzeMotion(f0); mf != nil {
		t.Error("motion field before any reference should be nil")
	}
	enc.Encode(f0, EncodeOptions{BaseQP: 20})
	f1 := shiftFrame(f0, 2, 0)
	mf1 := enc.AnalyzeMotion(f1)
	mf2 := enc.AnalyzeMotion(f1)
	if mf1 != mf2 {
		t.Error("repeated analysis of the same frame should be cached")
	}
	// Encode reuses and then invalidates the cache.
	enc.Encode(f1, EncodeOptions{BaseQP: 20})
	if enc.motion != nil {
		t.Error("cache should be invalidated after Encode")
	}
}

func TestMEMethodNames(t *testing.T) {
	for _, m := range AllMEMethods() {
		got, ok := ParseMEMethod(m.String())
		if !ok || got != m {
			t.Errorf("round trip failed for %v", m)
		}
	}
	if _, ok := ParseMEMethod("bogus"); ok {
		t.Error("bogus method parsed")
	}
	if MEMethod(0).String() != "unknown" {
		t.Error("zero method name")
	}
}

func TestFrameTypeString(t *testing.T) {
	if IFrame.String() != "I" || PFrame.String() != "P" {
		t.Error("FrameType strings wrong")
	}
}

func TestPredictMVMedian(t *testing.T) {
	mvs := []MV{{10, 0}, {2, 4}, {6, 8}, {0, 0}}
	// Grid 2x2, predict for (1,1): left = (6,8)? layout: index 2 is (0,1),
	// 3 is (1,1). Neighbors of (1,1): left (0,1)=(6,8), top (1,0)=(2,4);
	// no top-right. Median of two → average (4,6).
	got := predictMV(mvs, 2, 1, 1)
	if got != (MV{4, 6}) {
		t.Errorf("predictMV = %v", got)
	}
	// Corner has no neighbors.
	if got := predictMV(mvs, 2, 0, 0); got != (MV{}) {
		t.Errorf("corner predictor = %v", got)
	}
	// Full median-of-3.
	mvs3 := []MV{{1, 1}, {5, 9}, {3, 2}, {0, 0}, {0, 0}, {0, 0}}
	got = predictMV(mvs3, 3, 1, 1) // left (0,1)... index layout 3x2
	_ = got
	if m := median3(5, 1, 3); m != 3 {
		t.Errorf("median3 = %d", m)
	}
}

func TestSubPelOffRoundTrip(t *testing.T) {
	// Full-pel-only streams must decode bit-exactly too (the header flag
	// switches the decoder's compensation path).
	cfg := DefaultConfig(48, 48)
	cfg.SubPel = false
	enc, _ := NewEncoder(cfg)
	dec, _ := NewDecoder(cfg)
	f0 := texturedFrame(48, 48, 11)
	f1 := shiftFrame(f0, 2, 1)
	for i, f := range []*imgx.Plane{f0, f1} {
		ef, err := enc.Encode(f, EncodeOptions{BaseQP: 18})
		if err != nil {
			t.Fatal(err)
		}
		if ef.Motion != nil && ef.Motion.Scale != 1 {
			t.Errorf("frame %d: scale = %d, want 1", i, ef.Motion.Scale)
		}
		df, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		if imgx.MSE(df.Image, enc.Reconstructed()) != 0 {
			t.Fatalf("frame %d: full-pel decoder drift", i)
		}
	}
}

func TestForceIFrameRestartsGoP(t *testing.T) {
	cfg := DefaultConfig(32, 32)
	cfg.GoPSize = 4
	enc, _ := NewEncoder(cfg)
	f := texturedFrame(32, 32, 12)
	var types []FrameType
	for i := 0; i < 6; i++ {
		opts := EncodeOptions{BaseQP: 24}
		if i == 2 {
			opts.ForceIFrame = true
		}
		ef, err := enc.Encode(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, ef.Type)
	}
	// GoP counting is by frame index, so the forced I at 2 does not move
	// the scheduled I at 4.
	want := []FrameType{IFrame, PFrame, IFrame, PFrame, IFrame, PFrame}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("types = %v, want %v", types, want)
		}
	}
}

func TestIFrameBudgetScale(t *testing.T) {
	src := texturedFrame(96, 96, 13)
	encode := func(scale float64) int {
		enc, _ := NewEncoder(DefaultConfig(96, 96))
		ef, err := enc.Encode(src, EncodeOptions{TargetBits: 20000, IFrameBudgetScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		return ef.NumBits
	}
	plain := encode(0)
	scaled := encode(3)
	if plain > 20000 {
		t.Errorf("unscaled I-frame %d bits exceeds budget", plain)
	}
	if scaled > 60000 {
		t.Errorf("scaled I-frame %d bits exceeds 3x budget", scaled)
	}
	if scaled <= plain {
		t.Errorf("budget scale had no effect: %d vs %d", scaled, plain)
	}
}

// TestAnalyzeMotionSeesBufferMutation is the regression test for the
// memoization hazard: a caller that reuses one frame buffer across frames
// must not be served the previous frame's cached motion field. The content
// generation counter (imgx.Plane.Seq) is the fix — pointer identity alone
// cannot distinguish the two frames.
func TestAnalyzeMotionSeesBufferMutation(t *testing.T) {
	w, h := 64, 48
	enc := newTestEncoder(t, w, h)
	buf := texturedFrame(w, h, 3)
	if _, err := enc.Encode(buf.Clone(), EncodeOptions{BaseQP: 20}); err != nil {
		t.Fatal(err)
	}

	shifted := shiftFrame(buf, 4, 2)
	copy(buf.Pix, shifted.Pix)
	buf.Bump()
	first := enc.AnalyzeMotion(buf)
	if first == nil {
		t.Fatal("no motion field")
	}
	eta := first.NonZeroRatio()
	if eta < 0.5 {
		t.Fatalf("sanity: shifted frame should be mostly moving, η = %.2f", eta)
	}

	// Mutate the same buffer in place back to the reference content: the
	// frame is now static and a fresh analysis must say so. Serving the
	// cached field would report the stale η ≈ 1.
	ref := enc.Reconstructed()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			buf.Set(x, y, ref.At(x, y))
		}
	}
	second := enc.AnalyzeMotion(buf)
	if second.NonZeroRatio() > 0.05 {
		t.Errorf("stale motion memo: static content reported η = %.2f", second.NonZeroRatio())
	}
}

// TestMotionFieldSurvivesOneFollowingEncode pins the documented lifetime of
// EncodedFrame.Motion under buffer recycling: the field from frame i is
// intact after encoding frame i+1 (the EncodedFrame itself is not: it is
// the encoder's, so the test holds on to the field).
func TestMotionFieldSurvivesOneFollowingEncode(t *testing.T) {
	w, h := 64, 48
	enc := newTestEncoder(t, w, h)
	f0 := texturedFrame(w, h, 3)
	if _, err := enc.Encode(f0, EncodeOptions{BaseQP: 20}); err != nil {
		t.Fatal(err)
	}
	ef1, err := enc.Encode(shiftFrame(f0, 3, 1), EncodeOptions{BaseQP: 20})
	if err != nil {
		t.Fatal(err)
	}
	mf1 := ef1.Motion
	mvs := append([]MV(nil), mf1.MVs...)
	if _, err := enc.Encode(shiftFrame(f0, 6, 2), EncodeOptions{BaseQP: 20}); err != nil {
		t.Fatal(err)
	}
	for i := range mvs {
		if mf1.MVs[i] != mvs[i] {
			t.Fatalf("MV %d of frame 1 changed during the following encode", i)
		}
	}
}

// TestReconstructedSurvivesOneFollowingEncode pins the documented lifetime of
// Reconstructed(): the plane handed out after frame i is intact after
// encoding frame i+1 — P after I, P after P, a rate-controlled forced I after
// P — though the encoder keeps only two planes.
func TestReconstructedSurvivesOneFollowingEncode(t *testing.T) {
	enc := newTestEncoder(t, 96, 80)
	var prev, clone *imgx.Plane
	for i, s := range scriptInputs(96, 80) {
		if _, err := enc.Encode(s.frame, s.opts); err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev.Pix, clone.Pix) {
			t.Fatalf("reconstruction of frame %d changed while encoding frame %d", i-1, i)
		}
		prev = enc.Reconstructed()
		clone = prev.Clone()
	}
}

// TestWorkersFieldIsIgnored: Config.Workers survives only because the
// benchmark module assigns it; whatever it holds, the encoder emits the same
// bytes.
func TestWorkersFieldIsIgnored(t *testing.T) {
	var want [][]byte
	for _, workers := range []int{0, 1, 8} {
		cfg := DefaultConfig(96, 80)
		cfg.Workers = workers
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range scriptInputs(96, 80) {
			ef, err := enc.Encode(in.frame, in.opts)
			if err != nil {
				t.Fatalf("Workers=%d frame %d: %v", workers, i, err)
			}
			if workers == 0 {
				want = append(want, ef.Clone().Data)
			} else if !bytes.Equal(ef.Data, want[i]) {
				t.Errorf("Workers=%d frame %d: %d bytes differ from the %d at Workers=0", workers, i, len(ef.Data), len(want[i]))
			}
		}
	}
}
