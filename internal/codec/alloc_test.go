package codec

import (
	"bytes"
	"testing"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// Steady-state allocation contract. With ReuseFrames set, an encoder
// (telemetry off) must not allocate at all once its free lists
// are warm: recon planes, frame jobs, QP/mode/level scratch, trial scratch
// and BitWriter buffers all recycle. These tests pin that with
// testing.AllocsPerRun; the CI alloc gate (make bench-alloc) pins the
// -benchmem numbers of the matching benchmarks.

// allocStreamEncoder builds a pooled encoder plus a varied frame
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
			// Warm-up: fill the job/plane/trial free lists and grow the
			// BitWriter to its steady-state capacity (covers one full GoP,
			// so the I-frame trial recon is allocated here too).
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
// with emission deferred behind the analysis by `depth` frames and requires
// zero steady-state allocations at every depth.
func TestTwoPhaseSteadyStateZeroAlloc(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		enc, frames := allocStreamEncoder(t, true)
		ring := make([]*FrameJob, depth)
		idx, pending := 0, 0
		step := func() {
			// The oldest in-flight job sits depth frames back — the same
			// ring slot this frame's job will take over.
			if pending == depth {
				if _, err := enc.EmitBitstream(ring[idx%depth]); err != nil {
					t.Fatal(err)
				}
				pending--
			}
			f := frames[idx%len(frames)]
			job, err := enc.AnalyzeAndQuantize(f, EncodeOptions{TargetBits: 40_000})
			if err != nil {
				t.Fatal(err)
			}
			ring[idx%depth] = job
			idx++
			pending++
		}
		for i := 0; i < 16; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(32, step); allocs != 0 {
			t.Errorf("depth %d: steady-state two-phase: %.1f allocs/frame, want 0", depth, allocs)
		}
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

// TestPooledBitExact pins the other half of the pooling contract: recycling
// may not change a single emitted byte. A pooled (ReuseFrames, deferred
// emit) encoder must match a fresh-buffer serial encoder across every ME
// method, emit deferral 1–3 and the scripted option mix (I, P,
// differential QP, rate control, forced I).
func TestPooledBitExact(t *testing.T) {
	for _, m := range AllMEMethods() {
		for depth := 1; depth <= 3; depth++ {
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
			inputs := scriptInputs(96, 80)
			var want [][]byte
			var wantQPs [][]int
			for i, s := range inputs {
				ef, err := fresh.Encode(s.frame, s.opts)
				if err != nil {
					t.Fatalf("fresh frame %d: %v", i, err)
				}
				want = append(want, ef.Data)
				wantQPs = append(wantQPs, ef.QPs)
			}
			var pending []*FrameJob
			var got [][]byte
			var gotQPs [][]int
			emitOldest := func() {
				job := pending[0]
				pending = pending[1:]
				ef, err := pooled.EmitBitstream(job)
				if err != nil {
					t.Fatalf("method=%s depth=%d: emit: %v", m, depth, err)
				}
				// Pooled frames alias job storage: copy before the job
				// cycles back, exactly as a ReuseFrames caller must.
				got = append(got, append([]byte(nil), ef.Data...))
				gotQPs = append(gotQPs, append([]int(nil), ef.QPs...))
			}
			for i, s := range inputs {
				job, err := pooled.AnalyzeAndQuantize(s.frame, s.opts)
				if err != nil {
					t.Fatalf("method=%s depth=%d frame %d: %v", m, depth, i, err)
				}
				pending = append(pending, job)
				if len(pending) >= depth {
					emitOldest()
				}
			}
			for len(pending) > 0 {
				emitOldest()
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Errorf("method=%s depth=%d frame %d: pooled bitstream differs (%d vs %d bytes)",
						m, depth, i, len(got[i]), len(want[i]))
				}
				for j := range wantQPs[i] {
					if wantQPs[i][j] != gotQPs[i][j] {
						t.Fatalf("method=%s depth=%d frame %d: QP map differs at MB %d", m, depth, i, j)
					}
				}
			}
			if !bytes.Equal(fresh.Reconstructed().Pix, pooled.Reconstructed().Pix) {
				t.Errorf("method=%s depth=%d: reconstructions diverge", m, depth)
			}
		}
	}
}

// TestReuseFramesAliasingContract documents what ReuseFrames trades away:
// the handed-out frame's Data is overwritten once the job cycles back. The
// decode of each frame (before the next encode) must still be valid.
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
