package codec

import (
	"bytes"
	"testing"

	"dive/internal/imgx"
)

// legacyEncode replicates the pre-split Encode: one monolithic
// encodePass(final=true) producing bits, reconstruction and state advance in
// a single phase. It is the oracle the two-phase path must match exactly.
func legacyEncode(t *testing.T, e *Encoder, frame *imgx.Plane, opts EncodeOptions) *EncodedFrame {
	t.Helper()
	ftype := PFrame
	if e.ref == nil || opts.ForceIFrame || (e.cfg.GoPSize <= 1) || (e.frameIdx%e.cfg.GoPSize == 0) {
		ftype = IFrame
	}
	var mf *MotionField
	if e.ref != nil {
		mf = e.AnalyzeMotion(frame)
	}
	baseQP := clampQP(opts.BaseQP)
	if ftype == IFrame && opts.IFrameBudgetScale > 1 && opts.TargetBits > 0 {
		opts.TargetBits = int(float64(opts.TargetBits) * opts.IFrameBudgetScale)
	}
	var dctCache [][blockSize * blockSize]int32
	if ftype == PFrame {
		dctCache = e.buildInterDCTCache(frame, mf)
	}
	var result *passResult
	if opts.TargetBits > 0 {
		lo, hi := 0, 51
		for lo < hi {
			mid := (lo + hi) / 2
			if e.encodePass(frame, ftype, mf, dctCache, mid, opts.QPOffsets, false).bits <= opts.TargetBits {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		result = e.encodePass(frame, ftype, mf, dctCache, lo, opts.QPOffsets, true)
		baseQP = result.qp
	} else {
		result = e.encodePass(frame, ftype, mf, dctCache, baseQP, opts.QPOffsets, true)
	}
	e.ref = result.recon
	e.analyzed, e.motion = nil, nil
	idx := e.frameIdx
	e.frameIdx++
	return &EncodedFrame{
		Type: ftype, Index: idx, BaseQP: baseQP,
		MBW: e.mbw, MBH: e.mbh,
		Motion: mf, QPs: result.qps,
		Data: result.data, NumBits: result.nbits,
	}
}

// scriptInputs returns a fixed, varied frame/option sequence: an I-frame,
// plain P-frames, a differential-QP P-frame, rate-controlled frames and a
// forced rate-controlled I-frame.
func scriptInputs(w, h int) []struct {
	frame *imgx.Plane
	opts  EncodeOptions
} {
	f0 := texturedFrame(w, h, 7)
	f1 := shiftFrame(f0, 3, 1)
	f2 := shiftFrame(f0, 5, 2)
	f3 := shiftFrame(f0, 8, 3)
	offsets := make([]int, (w/MBSize)*(h/MBSize))
	for i := range offsets {
		if i%3 == 0 {
			offsets[i] = 6
		}
	}
	return []struct {
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
}

// TestTwoPhaseMatchesLegacyEncode pins the split's core contract: the
// quantize+emit composition produces byte-identical bitstreams, identical
// bit counts, QP maps and reconstructions to the monolithic final pass, for
// every ME method and sub-pel setting.
func TestTwoPhaseMatchesLegacyEncode(t *testing.T) {
	for _, m := range AllMEMethods() {
		for _, subpel := range []bool{false, true} {
			cfg := DefaultConfig(96, 80)
			cfg.Method = m
			cfg.SubPel = subpel
			legacy, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			split, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range scriptInputs(96, 80) {
				want := legacyEncode(t, legacy, s.frame, s.opts)
				got, err := split.Encode(s.frame, s.opts)
				if err != nil {
					t.Fatalf("method=%s subpel=%v frame %d: %v", m, subpel, i, err)
				}
				if !bytes.Equal(want.Data, got.Data) {
					t.Fatalf("method=%s subpel=%v frame %d: two-phase bitstream differs (%d vs %d bytes)",
						m, subpel, i, len(got.Data), len(want.Data))
				}
				if want.NumBits != got.NumBits || want.BaseQP != got.BaseQP || want.Type != got.Type {
					t.Fatalf("method=%s subpel=%v frame %d: metadata differs: bits %d/%d qp %d/%d type %v/%v",
						m, subpel, i, got.NumBits, want.NumBits, got.BaseQP, want.BaseQP, got.Type, want.Type)
				}
				for j := range want.QPs {
					if want.QPs[j] != got.QPs[j] {
						t.Fatalf("method=%s subpel=%v frame %d: QP map differs at MB %d", m, subpel, i, j)
					}
				}
				if !bytes.Equal(legacy.Reconstructed().Pix, split.Reconstructed().Pix) {
					t.Fatalf("method=%s subpel=%v frame %d: reconstructions diverge", m, subpel, i)
				}
			}
		}
	}
}

// TestEmitBitstreamMisuse covers the job lifecycle errors: analyzing a
// second frame before emitting the first, emitting on a foreign encoder and
// double emit must fail rather than corrupt state — the pending job still
// emits exactly what an undisturbed encoder produces.
func TestEmitBitstreamMisuse(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := texturedFrame(64, 48, 1)
	opts := EncodeOptions{BaseQP: 24}
	want, err := other.Encode(frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	job, err := enc.AnalyzeAndQuantize(frame, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.AnalyzeAndQuantize(texturedFrame(64, 48, 2), EncodeOptions{BaseQP: 40}); err == nil {
		t.Error("analyzing a frame while the previous one is unemitted should fail")
	}
	if _, err := other.EmitBitstream(job); err == nil {
		t.Error("emitting a job on a different encoder should fail")
	}
	got, err := enc.EmitBitstream(job)
	if err != nil {
		t.Fatalf("first emit: %v", err)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Errorf("pending job emitted %d bytes unlike a fresh encoder's %d", len(got.Data), len(want.Data))
	}
	if _, err := enc.EmitBitstream(job); err == nil {
		t.Error("double emit should fail")
	}
}
