package codec

import (
	"bytes"
	"testing"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// encodeScript encodes a fixed, varied frame sequence — an I-frame, plain
// P-frames, a differential-QP P-frame, rate-controlled frames and a forced
// rate-controlled I-frame — and returns every compressed payload.
func encodeScript(t *testing.T, enc *Encoder) [][]byte {
	t.Helper()
	w, h := enc.cfg.Width, enc.cfg.Height
	f0 := texturedFrame(w, h, 7)
	f1 := shiftFrame(f0, 3, 1)
	f2 := shiftFrame(f0, 5, 2)
	f3 := shiftFrame(f0, 8, 3)

	offsets := make([]int, (w/MBSize)*(h/MBSize))
	for i := range offsets {
		if i%3 == 0 {
			offsets[i] = 6 // background macroblocks, DiVE-style δ
		}
	}
	script := []struct {
		frame *imgx.Plane
		opts  EncodeOptions
	}{
		{f0, EncodeOptions{BaseQP: 22}},
		{f1, EncodeOptions{BaseQP: 22}},
		{f2, EncodeOptions{BaseQP: 26, QPOffsets: offsets}},
		{f3, EncodeOptions{TargetBits: 60_000}},
		{f1, EncodeOptions{TargetBits: 90_000, ForceIFrame: true, IFrameBudgetScale: 2}},
		{f2, EncodeOptions{TargetBits: 60_000, QPOffsets: offsets}},
	}
	var out [][]byte
	for i, s := range script {
		ef, err := enc.Encode(s.frame, s.opts)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		out = append(out, ef.Data)
	}
	return out
}

// TestParallelBitstreamBitExact is the tentpole's contract: for every motion
// estimation method, the multi-worker encoder emits byte-identical
// bitstreams to the serial one across I-frames, P-frames, differential QP
// maps and rate-controlled frames.
func TestParallelBitstreamBitExact(t *testing.T) {
	for _, m := range AllMEMethods() {
		for _, subpel := range []bool{false, true} {
			cfg := DefaultConfig(96, 80)
			cfg.Method = m
			cfg.SubPel = subpel
			cfg.Workers = 1
			serial, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 8
			par, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeScript(t, serial)
			got := encodeScript(t, par)
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Errorf("method=%s subpel=%v frame %d: parallel bitstream differs from serial (%d vs %d bytes)",
						m, subpel, i, len(got[i]), len(want[i]))
				}
			}
		}
	}
}

// TestSpeculativeProbesHonorMinQP pins the prefetcher to the tree the
// bisection actually walks, [MinQP, 51]: with a QP floor (every
// degradation-ladder rung sets one) the first probe a bisecting frame — the
// I-frame here — consults must come from the speculative memo. The P-frame
// after it starts from the I-frame's QP and prefetches nothing. Either way
// the chosen QP and bitstream must be the serial encoder's.
func TestSpeculativeProbesHonorMinQP(t *testing.T) {
	f0 := texturedFrame(96, 80, 7)
	frames := []*imgx.Plane{f0, shiftFrame(f0, 3, 1)} // rate-controlled I, then P
	opts := EncodeOptions{TargetBits: 3_200, MinQP: 30}
	encode := func(workers int) []*EncodedFrame {
		cfg := DefaultConfig(96, 80)
		cfg.Workers = workers
		cfg.Obs = obs.NewRecorder(64)
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []*EncodedFrame
		for i, f := range frames {
			ef, err := enc.Encode(f, opts)
			if err != nil {
				t.Fatalf("workers=%d frame %d: %v", workers, i, err)
			}
			out = append(out, ef)
		}
		return out
	}
	serial, par := encode(1), encode(4)
	for i := range frames {
		if tr := par[i].RCTrials; par[i].Type == IFrame && (len(tr) == 0 || !tr[0].Speculative) {
			t.Errorf("frame %d: first bisection probe was not served speculatively: %+v", i, tr)
		}
		for _, tr := range par[i].RCTrials {
			if par[i].Type == PFrame && tr.Speculative {
				t.Errorf("frame %d: warm-started search consulted a speculative probe: %+v", i, par[i].RCTrials)
			}
		}
		if par[i].BaseQP != serial[i].BaseQP || !bytes.Equal(par[i].Data, serial[i].Data) {
			t.Errorf("frame %d: parallel encode (QP %d, %d bytes) differs from serial (QP %d, %d bytes)",
				i, par[i].BaseQP, len(par[i].Data), serial[i].BaseQP, len(serial[i].Data))
		}
	}
}

// TestParallelDecodesIdentically double-checks the parallel encoder through
// the decoder: reconstructions must equal the encoder's own.
func TestParallelDecodesIdentically(t *testing.T) {
	cfg := DefaultConfig(96, 80)
	cfg.Workers = 8
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0 := texturedFrame(96, 80, 7)
	for i, f := range []*imgx.Plane{f0, shiftFrame(f0, 2, 1), shiftFrame(f0, 4, 2)} {
		ef, err := enc.Encode(f, EncodeOptions{BaseQP: 24})
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(df.Image.Pix, enc.Reconstructed().Pix) {
			t.Fatalf("frame %d: decoder disagrees with parallel encoder reconstruction", i)
		}
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
// intact after encoding frame i+1.
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
	mvs := append([]MV(nil), ef1.Motion.MVs...)
	if _, err := enc.Encode(shiftFrame(f0, 6, 2), EncodeOptions{BaseQP: 20}); err != nil {
		t.Fatal(err)
	}
	for i := range mvs {
		if ef1.Motion.MVs[i] != mvs[i] {
			t.Fatalf("MV %d of frame 1 changed during the following encode", i)
		}
	}
}
