package codec

import (
	"bytes"
	"testing"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// Steady-state allocation contract. With ReuseFrames set, an encoder
// (telemetry off) must not allocate at all once warm: its two recon planes,
// its one frame job (QP/mode/level storage and BitWriter buffer) and its
// trial scratch are all reused. These tests pin that with
// testing.AllocsPerRun; the CI alloc gate (make bench-alloc) pins the
// -benchmem numbers of the matching benchmarks.

// allocStreamEncoder builds a ReuseFrames encoder plus a varied frame
// cycle (shifting texture, so P-frames carry real motion and residual) for
// steady-state loops. GoPSize 8 puts I-frames inside the measured window.
func allocStreamEncoder(t testing.TB, reuse bool) (*Encoder, []*imgx.Plane) {
	t.Helper()
	cfg := DefaultConfig(96, 80)
	cfg.GoPSize = 8
	cfg.ReuseFrames = reuse
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0 := texturedFrame(96, 80, 11)
	frames := []*imgx.Plane{f0, shiftFrame(f0, 2, 1), shiftFrame(f0, 4, 2), shiftFrame(f0, 6, 2)}
	return enc, frames
}

func TestEncodeSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts EncodeOptions
	}{
		{"fixed-qp", EncodeOptions{BaseQP: 26}},
		{"differential-qp", EncodeOptions{BaseQP: 26, QPOffsets: makeOffsets(96, 80)}},
		{"rate-controlled", EncodeOptions{TargetBits: 40_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, frames := allocStreamEncoder(t, true)
			idx := 0
			step := func() {
				f := frames[idx%len(frames)]
				idx++
				if _, err := enc.Encode(f, tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: allocate the job, both planes and the trial scratch
			// and grow the BitWriter to its steady-state capacity (covers
			// one full GoP, so the I-frame trial recon is allocated here too).
			for i := 0; i < 16; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(32, step); allocs != 0 {
				t.Errorf("steady-state Encode: %.1f allocs/frame, want 0", allocs)
			}
		})
	}
}

// TestTwoPhaseSteadyStateZeroAlloc drives AnalyzeAndQuantize/EmitBitstream
// as separate calls and requires zero steady-state allocations.
func TestTwoPhaseSteadyStateZeroAlloc(t *testing.T) {
	enc, frames := allocStreamEncoder(t, true)
	idx := 0
	step := func() {
		job, err := enc.AnalyzeAndQuantize(frames[idx%len(frames)], EncodeOptions{TargetBits: 40_000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.EmitBitstream(job); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(32, step); allocs != 0 {
		t.Errorf("steady-state two-phase: %.1f allocs/frame, want 0", allocs)
	}
}

// TestJournaledPathAllocBound documents the journaled exception: with a
// Recorder attached, rate control appends its bisection trace (consumed by
// value by the decision journal), so the steady state allocates a little —
// but the bound must stay small and flat.
func TestJournaledPathAllocBound(t *testing.T) {
	enc, frames := allocStreamEncoder(t, true)
	enc.cfg.Obs = obs.NewRecorder(64)
	idx := 0
	step := func() {
		f := frames[idx%len(frames)]
		idx++
		if _, err := enc.Encode(f, EncodeOptions{TargetBits: 40_000}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		step()
	}
	// The RC trace is a handful of appends (≤ 6 bisection probes); allow
	// headroom for the recorder's internal bookkeeping but catch any
	// per-MB-magnitude regression.
	if allocs := testing.AllocsPerRun(32, step); allocs > 10 {
		t.Errorf("journaled steady-state Encode: %.1f allocs/frame, want <= 10", allocs)
	}
}

func makeOffsets(w, h int) []int {
	offsets := make([]int, (w/MBSize)*(h/MBSize))
	for i := range offsets {
		if i%3 == 0 {
			offsets[i] = 6
		}
	}
	return offsets
}

// TestPooledBitExact pins the other half of the reuse contract: handing out
// job-owned storage may not change a single emitted byte. A ReuseFrames
// encoder driven through AnalyzeAndQuantize/EmitBitstream must match a
// fresh-buffer encoder across every ME method and the scripted option mix
// (I, P, differential QP, rate control, forced I).
func TestPooledBitExact(t *testing.T) {
	for _, m := range AllMEMethods() {
		cfg := DefaultConfig(96, 80)
		cfg.Method = m
		fresh, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pcfg := cfg
		pcfg.ReuseFrames = true
		pooled, err := NewEncoder(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scriptInputs(96, 80) {
			want, err := fresh.Encode(s.frame, s.opts)
			if err != nil {
				t.Fatalf("fresh frame %d: %v", i, err)
			}
			job, err := pooled.AnalyzeAndQuantize(s.frame, s.opts)
			if err != nil {
				t.Fatalf("method=%s frame %d: %v", m, i, err)
			}
			got, err := pooled.EmitBitstream(job)
			if err != nil {
				t.Fatalf("method=%s frame %d: emit: %v", m, i, err)
			}
			if !bytes.Equal(want.Data, got.Data) {
				t.Errorf("method=%s frame %d: pooled bitstream differs (%d vs %d bytes)",
					m, i, len(got.Data), len(want.Data))
			}
			for j := range want.QPs {
				if want.QPs[j] != got.QPs[j] {
					t.Fatalf("method=%s frame %d: QP map differs at MB %d", m, i, j)
				}
			}
		}
		if !bytes.Equal(fresh.Reconstructed().Pix, pooled.Reconstructed().Pix) {
			t.Errorf("method=%s: reconstructions diverge", m)
		}
	}
}

// TestReuseFramesAliasingContract documents what ReuseFrames trades away:
// the handed-out frame's Data is overwritten by the next emit. The decode of
// each frame (before the next encode) must still be valid.
func TestReuseFramesAliasingContract(t *testing.T) {
	enc, frames := allocStreamEncoder(t, true)
	dec, err := NewDecoder(enc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ef, err := enc.Encode(frames[i%len(frames)], EncodeOptions{BaseQP: 26})
		if err != nil {
			t.Fatal(err)
		}
		// Consume immediately — the ReuseFrames contract.
		rec, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("frame %d: decode of pooled Data failed: %v", i, err)
		}
		if !bytes.Equal(rec.Image.Pix, enc.Reconstructed().Pix) {
			t.Fatalf("frame %d: decoder disagrees with encoder reconstruction", i)
		}
	}
}

// decodeStream encodes a short looping clip (an I-frame, rate-controlled
// P-frames with real motion, a forced I-frame halfway) and returns a
// Decoder that has already been through it once — both of its planes exist
// — together with the bitstreams. The loop restarts on an I-frame, so
// replaying it forever is a valid stream.
func decodeStream(t testing.TB, cfg Config) (*Decoder, [][]byte) {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := texturedFrame(cfg.Width, cfg.Height, 11)
	var streams [][]byte
	for i := 0; i < 12; i++ {
		ef, err := enc.Encode(chainFrame(base, i), EncodeOptions{
			TargetBits: cfg.Width * cfg.Height * 2, ForceIFrame: i == 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(ef.Data); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, ef.Data)
	}
	return dec, streams
}

// TestDecodeSteadyStateZeroAlloc pins the decoder half of the allocation
// contract: a session's Decoder owns its two planes, its side arrays and the
// DecodedFrame it returns, so after the first two frames Decode allocates
// nothing — on I-frames, P-frames, and with or without the loop filter.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	for _, deblock := range []bool{true, false} {
		cfg := DefaultConfig(96, 80)
		cfg.Deblock = deblock
		dec, streams := decodeStream(t, cfg)
		idx := 0
		step := func() {
			if _, err := dec.Decode(streams[idx%len(streams)]); err != nil {
				t.Fatal(err)
			}
			idx++
		}
		if allocs := testing.AllocsPerRun(3*len(streams), step); allocs != 0 {
			t.Errorf("deblock=%v: steady-state Decode: %.1f allocs/frame, want 0", deblock, allocs)
		}
	}
}
