package codec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dive/internal/imgx"
)

// benchFrames returns a pair of consecutive-looking frames for encode
// benchmarks.
func benchFrames() (*imgx.Plane, *imgx.Plane) {
	rng := rand.New(rand.NewSource(1))
	a := randomFrame(320, 192, rng)
	b := imgx.NewPlane(320, 192)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			b.Set(x, y, a.At(x-3, y-1))
		}
	}
	return a, b
}

func BenchmarkEncodePFrame(b *testing.B) {
	f0, f1 := benchFrames()
	enc, _ := NewEncoder(DefaultConfig(320, 192))
	if _, err := enc.Encode(f0, EncodeOptions{BaseQP: 20}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate so every encode is a non-trivial P-frame.
		f := f1
		if i%2 == 1 {
			f = f0
		}
		if _, err := enc.Encode(f, EncodeOptions{BaseQP: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRateControlled(b *testing.B) {
	f0, f1 := benchFrames()
	enc, _ := NewEncoder(DefaultConfig(320, 192))
	if _, err := enc.Encode(f0, EncodeOptions{BaseQP: 20}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := f1
		if i%2 == 1 {
			f = f0
		}
		if _, err := enc.Encode(f, EncodeOptions{TargetBits: 150_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMotionSearch(b *testing.B) {
	f0, f1 := benchFrames()
	for _, m := range AllMEMethods() {
		b.Run(m.String(), func(b *testing.B) {
			cfg := DefaultConfig(320, 192)
			cfg.Method = m
			enc, _ := NewEncoder(cfg)
			if _, err := enc.Encode(f0, EncodeOptions{BaseQP: 20}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Invalidate the analysis cache by alternating frames.
				f := f1
				if i%2 == 1 {
					f = f0
				}
				enc.AnalyzeMotion(f)
				enc.analyzed = nil
			}
		})
	}
}

// BenchmarkDCT times one 8×8 block through each body of the forward
// transform (residual bytes in, coefficients and their magnitude OR out) and
// of the inverse step (levels in at QP 20, reconstructed bytes out), with
// dense levels and with three.
func BenchmarkDCT(b *testing.B) {
	var cur, pred [blockSize * blockSize]uint8
	var dense, sparse [blockSize * blockSize]int32
	for i := range cur {
		cur[i], pred[i] = uint8(i*37), uint8(i*11+40)
		dense[i] = int32(i%7 - 3)
	}
	sparse[0], sparse[1], sparse[blockSize] = 12, -3, 2
	for _, body := range transformBodies {
		b.Run(body.name+"/forward", func(b *testing.B) {
			var coef [blockSize * blockSize]int32
			for i := 0; i < b.N; i++ {
				benchSink = int(body.fdct(cur[:], blockSize, pred[:], blockSize, &coef))
			}
		})
		for _, in := range []struct {
			name   string
			levels *[blockSize * blockSize]int32
		}{{"inverse-dense", &dense}, {"inverse-sparse", &sparse}} {
			b.Run(body.name+"/"+in.name, func(b *testing.B) {
				var out [blockSize * blockSize]uint8
				for i := 0; i < b.N; i++ {
					body.idct(out[:], blockSize, pred[:], blockSize, in.levels, 20)
				}
			})
		}
	}
}

// BenchmarkQuantize times one block through the quantizer's Go body and
// through the dispatched kernel (the SSE2 body on amd64), each priced the
// way codeBlock prices it, near-lossless (most levels nonzero and long) and
// at the clear-link operating point (a few short levels).
func BenchmarkQuantize(b *testing.B) {
	var coef [blockSize * blockSize]int32
	for i := range coef {
		coef[i] = int32((i%101 - 50) * 59)
	}
	for _, body := range quantizeBodies {
		for _, qp := range []int{2, 25} {
			b.Run(fmt.Sprintf("%s/qp%d", body.name, qp), func(b *testing.B) {
				var levels [blockSize * blockSize]int32
				for i := 0; i < b.N; i++ {
					sig, lenSum := body.quantize(&coef, qp, &levels)
					benchSink = blockBits(zigzagMask(sig), lenSum)
				}
			})
		}
	}
}

// BenchmarkDeblockFrame times the loop filter on what the decoder hands it:
// the decodeStream clip (P-frames at base QP 0 to 15, I-frames at 22, as on
// a clear link) decoded without the filter, so each frame is a real
// reconstruction before filtering, with the QP map its macroblocks were
// decoded at. One frame per op, restored from its copy first (a 61 kB copy
// beside the filter).
func BenchmarkDeblockFrame(b *testing.B) {
	cfg := DefaultConfig(320, 192)
	cfg.Deblock = false
	dec, streams := decodeStream(b, cfg)
	type frame struct {
		pix []uint8
		qps []int
	}
	frames := make([]frame, len(streams))
	for i, s := range streams {
		df, err := dec.Decode(s)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = frame{slices.Clone(df.Image.Pix), slices.Clone(dec.qps)}
	}
	p := imgx.NewPlane(cfg.Width, cfg.Height)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		copy(p.Pix, f.pix)
		deblockFrame(p, f.qps, cfg.Width/MBSize)
	}
}

// BenchmarkEncodeSteadyState drives a serial streaming encode loop for
// -benchmem inspection. Its allocs/op is pinned at 0 by
// TestEncodeSteadyStateZeroAlloc and gated in CI via make bench-alloc.
func BenchmarkEncodeSteadyState(b *testing.B) {
	cfg := DefaultConfig(320, 192)
	cfg.GoPSize = 48
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f0, f1 := benchFrames()
	frames := []*imgx.Plane{f0, f1}
	for i := 0; i < 8; i++ {
		if _, err := enc.Encode(frames[i%2], EncodeOptions{TargetBits: 150_000}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%2], EncodeOptions{TargetBits: 150_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSteadyState is the server-side counterpart of
// BenchmarkEncodeSteadyState: one session's Decoder reused across a clip
// (I-frame, then a P-chain with a mid-clip forced I), one frame per op. Its
// allocs/op is pinned at 0 by TestDecodeSteadyStateZeroAlloc and gated in CI
// via make bench-alloc.
func BenchmarkDecodeSteadyState(b *testing.B) {
	dec, streams := decodeStream(b, DefaultConfig(320, 192))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(streams[i%len(streams)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRCTrial measures one rate-control trial — a single countPass —
// on a P-frame (every macroblock inter, fresh sensor noise as residual) and
// on an I-frame, across the QP range the bisection visits: near-lossless,
// the clear-link and tight-link operating points, and the dead-zone regime
// where most inter blocks quantize to nothing. Trials run on recycled
// scratch, so allocs/op is pinned at 0 in ci/alloc_baseline.json.
func BenchmarkRCTrial(b *testing.B) {
	cfg := DefaultConfig(320, 192)
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enc.Encode(texturedFrame(320, 192, 11), EncodeOptions{BaseQP: 20}); err != nil {
		b.Fatal(err)
	}
	frame := shiftFrame(texturedFrame(320, 192, 12), 3, 1)
	mf := enc.AnalyzeMotion(frame)
	cache := enc.buildInterDCTCache(frame, mf)
	for _, ft := range []FrameType{PFrame, IFrame} {
		for _, qp := range []int{2, 12, 25, 40} {
			b.Run(fmt.Sprintf("%v/qp%d", ft, qp), func(b *testing.B) {
				enc.countPass(frame, ft, mf, cache, qp, nil) // warm the trial scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = enc.countPass(frame, ft, mf, cache, qp, nil)
				}
			})
		}
	}
}

// BenchmarkEncodeIFrame encodes one forced I-frame per op the way the agent
// answers an outage: motion analysis (analytics want vectors on I-frames
// too), the rate-control bisection at the tight link's budget (1.2 Mbit/s at
// 30 frames/s) scaled by IFrameBudgetScale 3, the final pass and the
// hand-out. Two shifted frames alternate, so every op is analysed against a
// different reference. allocs/op is pinned at 0 in ci/alloc_baseline.json.
func BenchmarkEncodeIFrame(b *testing.B) {
	cfg := DefaultConfig(320, 192)
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frames := []*imgx.Plane{texturedFrame(320, 192, 11), shiftFrame(texturedFrame(320, 192, 11), 3, 1)}
	opts := EncodeOptions{TargetBits: 40_000, IFrameBudgetScale: 3, ForceIFrame: true}
	encode := func(f *imgx.Plane) {
		enc.AnalyzeMotion(f)
		ef, err := enc.Encode(f, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ef.Type != IFrame {
			b.Fatalf("frame %d is %v, want a forced I-frame", ef.Index, ef.Type)
		}
	}
	for i := 0; i < 4; i++ {
		encode(frames[i%2])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(frames[i%2])
	}
}

// BenchmarkRCSearch measures the rate-control search alone — searchBaseQP
// over one P-frame's cached coefficients, the encoder's model carried from
// op to op as AnalyzeAndQuantize carries it — and reports the trial passes it
// ran per frame. "steady" repeats one budget (the clear-link operating point,
// QP 12); "swinging" multiplies the budget by 4 and back every four frames;
// "alternating" doubles it every other frame, a period-two QP as on a tight
// link; "cold" resets the model before every search, an encoder's first
// P-frame every time: the floor is probed first, which at this budget costs
// the bisection's five trials plus two.
func BenchmarkRCSearch(b *testing.B) {
	cfg := DefaultConfig(320, 192)
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enc.Encode(texturedFrame(320, 192, 11), EncodeOptions{BaseQP: 20}); err != nil {
		b.Fatal(err)
	}
	frame := shiftFrame(texturedFrame(320, 192, 12), 3, 1)
	mf := enc.AnalyzeMotion(frame)
	cache := enc.buildInterDCTCache(frame, mf)
	budget := (enc.countPass(frame, PFrame, mf, cache, 12, nil) + enc.countPass(frame, PFrame, mf, cache, 11, nil)) / 2
	for _, c := range []struct {
		name  string
		scale [8]int
		cold  bool
	}{
		{"steady", [8]int{1, 1, 1, 1, 1, 1, 1, 1}, false},
		{"swinging", [8]int{1, 1, 1, 1, 4, 4, 4, 4}, false},
		{"alternating", [8]int{1, 2, 1, 2, 1, 2, 1, 2}, false},
		{"cold", [8]int{1, 1, 1, 1, 1, 1, 1, 1}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			enc.rc = rcModel{k: 6}
			trials := 0
			b.ReportAllocs()
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer() // the first search had no history
					trials = 0
				}
				if c.cold {
					enc.rc = rcModel{k: 6}
				}
				_, n, _ := enc.searchBaseQP(frame, PFrame, mf, cache, 0, EncodeOptions{TargetBits: budget * c.scale[(i+8)%8]})
				trials += n
			}
			b.ReportMetric(float64(trials)/float64(b.N), "probes/frame")
		})
	}
}

// interBlocks returns the transform blocks of one P-frame's inter
// macroblocks, from the encoder's inter-DCT cache, for the entropy coder's
// benchmarks and the reader's test seeds.
func interBlocks(tb testing.TB) [][blockSize * blockSize]int32 {
	enc, err := NewEncoder(DefaultConfig(320, 192))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := enc.Encode(texturedFrame(320, 192, 11), EncodeOptions{BaseQP: 20}); err != nil {
		tb.Fatal(err)
	}
	frame := shiftFrame(texturedFrame(320, 192, 12), 3, 1)
	mf := enc.AnalyzeMotion(frame)
	cache := enc.buildInterDCTCache(frame, mf)
	var coded [][blockSize * blockSize]int32
	for i, mode := range mf.Modes {
		if mode == ModeInter {
			coded = append(coded, cache[i*4:i*4+4]...)
		}
	}
	return coded
}

// codeBlocks quantizes every block at qp and returns the levels and masks.
func codeBlocks(coded [][blockSize * blockSize]int32, qp int) ([][blockSize * blockSize]int32, []uint64) {
	levels, masks := make([][blockSize * blockSize]int32, len(coded)), make([]uint64, len(coded))
	for k := range coded {
		masks[k], _ = codeBlock(&coded[k], qp, &levels[k])
	}
	return levels, masks
}

// BenchmarkWriteCoeffs measures the entropy writer alone: writeCoeffs over
// every transform block of one P-frame of inter macroblocks, quantized from
// the encoder's inter-DCT cache, near-lossless, where every coefficient is
// coded, and at the clear-link operating point, where blocks hold a few. The
// writer is Reset and refilled; nothing allocates.
func BenchmarkWriteCoeffs(b *testing.B) {
	coded := interBlocks(b)
	for _, qp := range []int{2, 25} {
		b.Run(fmt.Sprintf("qp%d", qp), func(b *testing.B) {
			levels, masks := codeBlocks(coded, qp)
			var w BitWriter
			b.ReportAllocs()
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer() // the first frame grew the writer's buffer
				}
				w.Reset()
				for k := range levels {
					writeCoeffs(&w, &levels[k], masks[k])
				}
			}
			benchSink = w.Len()
		})
	}
}

// BenchmarkReadCoeffs is BenchmarkWriteCoeffs read back: readCoeffs over the
// same frame's blocks, written one after another as the decoder meets them,
// at the same two QPs. Nothing allocates.
func BenchmarkReadCoeffs(b *testing.B) {
	coded := interBlocks(b)
	for _, qp := range []int{2, 25} {
		b.Run(fmt.Sprintf("qp%d", qp), func(b *testing.B) {
			levels, masks := codeBlocks(coded, qp)
			var w BitWriter
			for k := range levels {
				writeCoeffs(&w, &levels[k], masks[k])
			}
			data := w.Bytes()
			var got [blockSize * blockSize]int32
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := BitReader{buf: data}
				for range levels {
					if _, err := readCoeffs(&r, &got); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

var benchSink int
