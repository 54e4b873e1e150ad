package codec

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dive/internal/imgx"
)

// The Decoder parses bitstreams that arrive over the network: the wire CRC
// stops line noise, not a buggy or hostile agent. FuzzDecode asserts the
// contract the edge server relies on: arbitrary bytes may be rejected, but
// only with an error wrapping ErrBitstream; the decoder never panics (an
// out-of-frame vector must take refWindow's clamped patch, or a row slice
// would); it allocates nothing that scales with what the stream claims; and
// a rejected bitstream leaves it able to decode the next I-frame to exactly
// the picture a fresh decoder produces.

// fuzzStreams encodes one I-frame and one moving P-frame per ME method on a
// small frame. Intra coding does not depend on the search, so every
// method's I-frame is the same bitstream and every P-frame decodes against
// it.
func fuzzStreams(t testing.TB, cfg Config) (iframe []byte, pframes [][]byte) {
	t.Helper()
	f0 := texturedFrame(cfg.Width, cfg.Height, 3)
	f1 := chainFrame(f0, 2)
	for _, m := range AllMEMethods() {
		c := cfg
		c.Method = m
		enc, err := NewEncoder(c)
		if err != nil {
			t.Fatal(err)
		}
		ef0, err := enc.Encode(f0, EncodeOptions{BaseQP: 20})
		if err != nil {
			t.Fatal(err)
		}
		if iframe != nil && !bytes.Equal(iframe, ef0.Data) {
			t.Fatalf("%s: I-frame differs between ME methods", m)
		}
		iframe = ef0.Clone().Data
		ef1, err := enc.Encode(f1, EncodeOptions{BaseQP: 24, QPOffsets: makeOffsets(cfg.Width, cfg.Height)})
		if err != nil {
			t.Fatal(err)
		}
		if ef1.Type != PFrame {
			t.Fatalf("%s: second frame is not a P-frame", m)
		}
		pframes = append(pframes, ef1.Clone().Data)
	}
	return iframe, pframes
}

func FuzzDecode(f *testing.F) {
	cfg := DefaultConfig(48, 32)
	iframe, pframes := fuzzStreams(f, cfg)
	for _, s := range append([][]byte{iframe}, pframes...) {
		for cut := 0; cut <= len(s); cut++ {
			f.Add(s[:cut])
		}
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add(wrappingMBCountStream())

	fresh, err := NewDecoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	df, err := fresh.Decode(iframe)
	if err != nil {
		f.Fatal(err)
	}
	golden := df.Image.Clone()
	mbs := (cfg.Width / MBSize) * (cfg.Height / MBSize)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A reference, so P-frames reach the macroblock layer; and a second
		// decode, so both planes exist before allocations are counted.
		for i := 0; i < 2; i++ {
			if _, err := dec.Decode(iframe); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		df, err := dec.Decode(data)
		runtime.ReadMemStats(&after)
		// The decoder's own buffers are sized by its Config and already
		// exist; what is left is an error value. 64 KiB of slack covers the
		// runtime's background allocations, not a width×height claim.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("Decode of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrBitstream) {
				t.Fatalf("decode error does not wrap ErrBitstream: %v", err)
			}
		} else if df.Image.W != cfg.Width || df.Image.H != cfg.Height || len(df.MVs) != mbs || len(df.Modes) != mbs {
			t.Fatalf("decoded frame has the wrong geometry: %dx%d, %d MVs", df.Image.W, df.Image.H, len(df.MVs))
		}
		// Accepted or rejected, the next I-frame resynchronises exactly.
		df, err = dec.Decode(iframe)
		if err != nil {
			t.Fatalf("I-frame after fuzzed input: %v", err)
		}
		if !bytes.Equal(df.Image.Pix, golden.Pix) {
			t.Fatal("I-frame after fuzzed input decodes to a different picture")
		}
	})
}

// wrappingMBCountStream is a 34-byte P-frame for a 48×32 decoder whose
// header claims 2^28+3 macroblocks a row: times MBSize that is 2^32+48,
// which a 32-bit int wraps to the configured width. Skip modes follow, more
// than the frame's six macroblocks.
func wrappingMBCountStream() []byte {
	var w BitWriter
	w.WriteUE(uint32(PFrame))
	w.WriteUE(20)
	w.WriteUE(1<<28 + 3)
	w.WriteUE(2)
	w.WriteBits(0b11, 2) // sub-pel, deblock
	for w.Len() < 34*8-2 {
		w.WriteUE(uint32(ModeSkip))
	}
	return w.Bytes()
}

// TestDecodeRejectsWrappingMBCount: the decoder compares the stream's
// macroblock counts with its own, never their products in pixels, so the
// wrapping claim is rejected on every GOARCH (as 386 it used to pass the
// size check and index past the per-macroblock arrays).
func TestDecodeRejectsWrappingMBCount(t *testing.T) {
	cfg := DefaultConfig(48, 32)
	iframe, _ := fuzzStreams(t, cfg)
	dec, _ := NewDecoder(cfg)
	if _, err := dec.Decode(iframe); err != nil {
		t.Fatal(err)
	}
	data := wrappingMBCountStream()
	if len(data) != 34 {
		t.Fatalf("stream is %d bytes, want 34", len(data))
	}
	if _, err := dec.Decode(data); !errors.Is(err, ErrBitstream) {
		t.Fatalf("Decode = %v, want ErrBitstream", err)
	}
}

// TestDecodeRejectionLeavesReferenceIntact is the P-frame half of the
// recovery contract, which FuzzDecode's I-frame resync cannot see: every
// truncation of a P-frame is rejected, and the intact P-frame then still
// decodes to what an undisturbed decoder produces — the failed decodes
// wrote into the spare plane only.
func TestDecodeRejectionLeavesReferenceIntact(t *testing.T) {
	cfg := DefaultConfig(48, 32)
	iframe, pframes := fuzzStreams(t, cfg)
	for k, p := range pframes {
		clean, _ := NewDecoder(cfg)
		if _, err := clean.Decode(iframe); err != nil {
			t.Fatal(err)
		}
		want, err := clean.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		dec, _ := NewDecoder(cfg)
		if _, err := dec.Decode(iframe); err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(p); cut++ {
			if _, err := dec.Decode(p[:cut]); err == nil {
				t.Fatalf("stream %d truncated to %d of %d bytes decoded", k, cut, len(p))
			} else if !errors.Is(err, ErrBitstream) {
				t.Fatalf("stream %d cut %d: error does not wrap ErrBitstream: %v", k, cut, err)
			}
		}
		got, err := dec.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Image.Pix, want.Image.Pix) {
			t.Fatalf("stream %d: P-frame after %d rejected truncations decodes differently", k, len(p))
		}
	}
}

// TestDecodeOutOfFrameVectors hand-writes a P-frame whose every macroblock
// carries a vector far outside the picture — what a hostile agent can send
// and the encoder's search never does — and checks the decoder neither
// panics nor invents pixels: each macroblock is the border-clamped
// prediction the per-pixel oracle computes.
func TestDecodeOutOfFrameVectors(t *testing.T) {
	cfg := DefaultConfig(48, 32)
	iframe, _ := fuzzStreams(t, cfg)
	for _, subpel := range []bool{false, true} {
		dec, _ := NewDecoder(cfg)
		df, err := dec.Decode(iframe)
		if err != nil {
			t.Fatal(err)
		}
		ref := df.Image.Clone()
		var w BitWriter
		w.WriteUE(uint32(PFrame))
		w.WriteUE(20)
		w.WriteUE(3)
		w.WriteUE(2)
		if subpel {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
		w.WriteBit(0) // no deblocking: the picture is the prediction
		want := imgx.NewPlane(cfg.Width, cfg.Height)
		mvs := make([]MV, 6)
		for i := range mvs {
			bx, by := i%3, i/3
			mvs[i] = []MV{{-30000, 9}, {32767, -32768}, {5, 20000}, {-77, -4000}, {1200, 1201}, {-32768, 32767}}[i]
			pred := predictMV(mvs, 3, bx, by)
			w.WriteUE(uint32(ModeInter))
			w.WriteUE(seToUE(int32(mvs[i].X) - int32(pred.X)))
			w.WriteUE(seToUE(int32(mvs[i].Y) - int32(pred.Y)))
			w.WriteUE(seToUE(0))
			for blk := 0; blk < 4; blk++ {
				w.WriteBit(0) // no coefficients
			}
			oracleMotionCompensate(want, ref, bx*MBSize, by*MBSize, mvs[i], subpel)
		}
		df, err = dec.Decode(w.Bytes())
		if err != nil {
			t.Fatalf("subpel=%v: %v", subpel, err)
		}
		if !bytes.Equal(df.Image.Pix, want.Pix) {
			t.Fatalf("subpel=%v: out-of-frame vectors did not decode to the clamped prediction", subpel)
		}
	}
}
