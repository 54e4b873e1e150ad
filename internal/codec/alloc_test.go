package codec

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// Steady-state allocation contract. An encoder (telemetry off) must not
// allocate at all once warm: its two recon planes, its one frame job (the
// handed-out EncodedFrame, QP storage and BitWriter buffer) and its trial
// scratch are all reused. These tests pin that with allocFree, on small
// frames and on the benchmarks' own 320×192 fixtures (bench_test.go).

// allocFree fails t unless op allocates nothing once warm: over the 200
// calls testing.AllocsPerRun counts after its warm-up call, the
// whole-number mean count must be 0 and runtime.MemStats.TotalAlloc at most
// 64 B a call. The byte bound fails an allocation on only some calls, which
// the truncated count reads as 0. Its 64 B, over 200 calls, leave room for
// a rare allocation made outside op while it runs (one of 5.5 kB was seen
// over 32 calls of a warm encoder).
func allocFree(t *testing.T, name string, op func()) {
	t.Helper()
	const runs = 200
	var before, after runtime.MemStats
	warm := false
	allocs := testing.AllocsPerRun(runs, func() {
		op()
		if !warm {
			warm = true
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; allocs != 0 || b > 64 {
		t.Errorf("%s: %.0f allocs and %d B per op, want 0 and at most 64", name, allocs, b)
	}
}

// allocStreamEncoder builds an encoder plus a varied frame cycle (shifting
// texture, so P-frames carry real motion and residual) for steady-state
// loops. GoPSize 8 puts I-frames inside the measured window.
func allocStreamEncoder(t testing.TB) (*Encoder, []*imgx.Plane) {
	t.Helper()
	cfg := DefaultConfig(96, 80)
	cfg.GoPSize = 8
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
			enc, frames := allocStreamEncoder(t)
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
			allocFree(t, "steady-state Encode", step)
		})
	}
	t.Run("bench", func(t *testing.T) { allocFree(t, "steady-state Encode", encodeSteadyOp(t)) })
}

// TestBenchOpsAllocateNothing holds every other steady-state benchmark of
// this package at 0 allocations, one subtest per benchmark row, on the
// benchmark's own fixture and warm-up: the loop filter, one macroblock's
// motion-compensated prediction (the border case proves the clamped patch
// stays on the stack), a forced I-frame's whole encode, one rate-control
// trial, a whole rate-control search, and the entropy writer and reader
// over one frame's blocks.
func TestBenchOpsAllocateNothing(t *testing.T) {
	t.Run("DeblockFrame", func(t *testing.T) { allocFree(t, "op", deblockOp(t)) })
	for _, c := range predictCases {
		t.Run("PredictMB/"+c.name, func(t *testing.T) { allocFree(t, "op", predictMBOp(c.px, c.py, c.mv)) })
	}
	t.Run("EncodeIFrame", func(t *testing.T) { allocFree(t, "op", encodeIFrameOp(t)) })
	trial := rcTrialFixture(t)
	for _, ft := range []FrameType{PFrame, IFrame} {
		for _, qp := range rcTrialQPs {
			t.Run(fmt.Sprintf("RCTrial/%v/qp%d", ft, qp), func(t *testing.T) { allocFree(t, "op", trial(ft, qp)) })
		}
	}
	start := rcSearchFixture(t)
	for _, c := range rcSearches {
		t.Run("RCSearch/"+c.name, func(t *testing.T) {
			search := start(c)
			search()
			allocFree(t, "op", func() { search() })
		})
	}
	coded := interBlocks(t)
	for _, qp := range entropyQPs {
		t.Run(fmt.Sprintf("WriteCoeffs/qp%d", qp), func(t *testing.T) { allocFree(t, "op", writeCoeffsOp(coded, qp)) })
		t.Run(fmt.Sprintf("ReadCoeffs/qp%d", qp), func(t *testing.T) {
			op, _ := readCoeffsOp(t, coded, qp)
			allocFree(t, "op", op)
		})
	}
}

// TestTwoPhaseSteadyStateZeroAlloc drives AnalyzeAndQuantize/EmitBitstream
// as separate calls and requires zero steady-state allocations.
func TestTwoPhaseSteadyStateZeroAlloc(t *testing.T) {
	enc, frames := allocStreamEncoder(t)
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
	allocFree(t, "steady-state two-phase", step)
}

// TestJournaledPathAllocBound documents the journaled exception: with a
// Recorder attached, rate control appends its bisection trace (consumed by
// value by the decision journal), so the steady state allocates a little —
// but the bound must stay small and flat.
func TestJournaledPathAllocBound(t *testing.T) {
	enc, frames := allocStreamEncoder(t)
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

// TestPooledBitExact pins the other half of the hand-out contract: reusing
// the encoder's storage may not change a single emitted byte. An encoder
// driven through AnalyzeAndQuantize/EmitBitstream must match one driven
// through Encode, across every ME method and the scripted option mix (I, P,
// differential QP, rate control, forced I), and the clones kept of the
// latter must still hold those bytes, and decode, once the script is over.
func TestPooledBitExact(t *testing.T) {
	for _, m := range AllMEMethods() {
		cfg := DefaultConfig(96, 80)
		cfg.Method = m
		whole, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		split, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var kept []*EncodedFrame
		var sums []uint32
		for i, s := range scriptInputs(96, 80) {
			want, err := whole.Encode(s.frame, s.opts)
			if err != nil {
				t.Fatalf("method=%s frame %d: %v", m, i, err)
			}
			kept = append(kept, want.Clone())
			job, err := split.AnalyzeAndQuantize(s.frame, s.opts)
			if err != nil {
				t.Fatalf("method=%s frame %d: %v", m, i, err)
			}
			got, err := split.EmitBitstream(job)
			if err != nil {
				t.Fatalf("method=%s frame %d: emit: %v", m, i, err)
			}
			if !bytes.Equal(want.Data, got.Data) || !slices.Equal(want.QPs, got.QPs) {
				t.Errorf("method=%s frame %d: two-phase frame differs from Encode's (%d vs %d bytes)",
					m, i, len(got.Data), len(want.Data))
			}
			sums = append(sums, crc32.ChecksumIEEE(got.Data))
		}
		if !bytes.Equal(whole.Reconstructed().Pix, split.Reconstructed().Pix) {
			t.Errorf("method=%s: reconstructions diverge", m)
		}
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, ef := range kept {
			if crc32.ChecksumIEEE(ef.Data) != sums[i] {
				t.Fatalf("method=%s: kept frame %d changed after later encodes", m, i)
			}
			if _, err := dec.Decode(ef.Data); err != nil {
				t.Fatalf("method=%s: kept frame %d: %v", m, i, err)
			}
		}
	}
}

// TestHandOutContract pins what the encoder's one hand-out means: the
// EncodedFrame, its QPs and its Data belong to the encoder and the next
// Encode overwrites them, while a Clone taken at hand-out survives every
// later frame and decodes, in order, to the encoder's reconstructions.
func TestHandOutContract(t *testing.T) {
	enc, frames := allocStreamEncoder(t)
	var clones []*EncodedFrame
	var recons []uint32
	var prev *EncodedFrame
	var prevQPs []int
	var prevData []byte
	for i := 0; i < 12; i++ {
		// Falling QPs: every frame's map differs from the last, and an
		// early frame at QP 10 grows the writer past what later ones need,
		// so its buffer is rewritten in place.
		qp := 40 - 2*i
		if i == 0 {
			qp = 10
		}
		ef, err := enc.Encode(frames[i%len(frames)], EncodeOptions{BaseQP: qp})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if ef != prev {
				t.Fatalf("frame %d: a second EncodedFrame was handed out", i)
			}
			if prevQPs[0] != qp {
				t.Errorf("frame %d: the last frame's QPs still read %d, want this frame's %d", i, prevQPs[0], qp)
			}
			if i >= 2 && bytes.Equal(prevData, clones[i-1].Data) {
				t.Errorf("frame %d: the last frame's Data survived the next Encode", i)
			}
		}
		c := ef.Clone()
		if c == ef || !bytes.Equal(c.Data, ef.Data) || !slices.Equal(c.QPs, ef.QPs) || c.NumBits != ef.NumBits {
			t.Fatalf("frame %d: Clone is not an equal copy", i)
		}
		clones = append(clones, c)
		recons = append(recons, crc32.ChecksumIEEE(enc.Reconstructed().Pix))
		prev, prevQPs, prevData = ef, ef.QPs, ef.Data
	}
	dec, err := NewDecoder(enc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clones {
		if c.QPs[0] != c.BaseQP {
			t.Errorf("clone %d: QPs[0] %d, want its BaseQP %d", i, c.QPs[0], c.BaseQP)
		}
		rec, err := dec.Decode(c.Data)
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
		if crc32.ChecksumIEEE(rec.Image.Pix) != recons[i] {
			t.Fatalf("clone %d: decodes to another picture than the encoder reconstructed", i)
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
		streams = append(streams, ef.Clone().Data)
	}
	return dec, streams
}

// TestDecodeSteadyStateZeroAlloc pins the decoder half of the allocation
// contract: a session's Decoder owns its two planes, its side arrays and the
// DecodedFrame it returns, so after the first two frames Decode allocates
// nothing — on I-frames, P-frames, and with or without the loop filter, on
// small frames and on BenchmarkDecodeSteadyState's fixture.
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
		allocFree(t, fmt.Sprintf("deblock=%v: steady-state Decode", deblock), step)
	}
	allocFree(t, "bench: steady-state Decode", decodeSteadyOp(t))
}
