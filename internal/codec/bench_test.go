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

// The steady-state benchmarks below each run the op their fixture returns,
// warmed up; TestEncodeSteadyStateZeroAlloc, TestDecodeSteadyStateZeroAlloc
// and TestBenchOpsAllocateNothing hold the same ops at 0 allocations.

// deblockOp returns the loop filter on what the decoder hands it: the
// decodeStream clip (P-frames at base QP 0 to 15, I-frames at 22, as on a
// clear link) decoded without the filter, so each frame is a real
// reconstruction before filtering, with the QP map its macroblocks were
// decoded at. Each op filters the next frame, restored from its copy first
// (a 61 kB copy beside the filter).
func deblockOp(tb testing.TB) func() {
	cfg := DefaultConfig(320, 192)
	cfg.Deblock = false
	dec, streams := decodeStream(tb, cfg)
	type frame struct {
		pix []uint8
		qps []int
	}
	frames := make([]frame, len(streams))
	for i, s := range streams {
		df, err := dec.Decode(s)
		if err != nil {
			tb.Fatal(err)
		}
		frames[i] = frame{slices.Clone(df.Image.Pix), slices.Clone(dec.qps)}
	}
	p := imgx.NewPlane(cfg.Width, cfg.Height)
	i := 0
	return func() {
		f := frames[i%len(frames)]
		i++
		copy(p.Pix, f.pix)
		deblockFrame(p, f.qps, cfg.Width/MBSize)
	}
}

// BenchmarkDeblockFrame times deblockOp: one frame per op.
func BenchmarkDeblockFrame(b *testing.B) {
	op := deblockOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// encodeSteadyOp returns a serial streaming encode: two shifted frames
// alternating under a 150 kbit budget, GoP 48, after eight frames of warm-up.
func encodeSteadyOp(tb testing.TB) func() {
	cfg := DefaultConfig(320, 192)
	cfg.GoPSize = 48
	enc, err := NewEncoder(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f0, f1 := benchFrames()
	frames := []*imgx.Plane{f0, f1}
	i := 0
	op := func() {
		if _, err := enc.Encode(frames[i%2], EncodeOptions{TargetBits: 150_000}); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	for i := 0; i < 8; i++ {
		op()
	}
	return op
}

// BenchmarkEncodeSteadyState times encodeSteadyOp: one frame per op.
func BenchmarkEncodeSteadyState(b *testing.B) {
	op := encodeSteadyOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// decodeSteadyOp is the server-side counterpart of encodeSteadyOp: one
// session's Decoder reused across a clip (I-frame, then a P-chain with a
// mid-clip forced I), one frame per op.
func decodeSteadyOp(tb testing.TB) func() {
	dec, streams := decodeStream(tb, DefaultConfig(320, 192))
	i := 0
	return func() {
		if _, err := dec.Decode(streams[i%len(streams)]); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// BenchmarkDecodeSteadyState times decodeSteadyOp: one frame per op.
func BenchmarkDecodeSteadyState(b *testing.B) {
	op := decodeSteadyOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// predictCases are BenchmarkPredictMB's macroblocks of a random 320×192
// reference: an interior block on each half-pel phase, and the diagonal
// phase on the last column, whose taps leave the frame so refWindow copies
// the clamped patch.
var predictCases = []struct {
	name   string
	px, py int
	mv     MV
}{
	{"full", 64, 64, MV{6, -4}},
	{"H", 64, 64, MV{7, -4}},
	{"V", 64, 64, MV{6, -3}},
	{"HV", 64, 64, MV{7, -3}},
	{"HV-border", 304, 64, MV{1, 1}},
}

// predictMBOp returns the half-pel prediction of one predictCases
// macroblock into a 16×16 buffer.
func predictMBOp(px, py int, mv MV) func() {
	ref := randPlane(rand.New(rand.NewSource(3)), 320, 192)
	dst := make([]uint8, MBSize*MBSize)
	return func() { predictBlock(dst, MBSize, ref, px, py, mv, true) }
}

// BenchmarkPredictMB times predictMBOp: one macroblock per op.
func BenchmarkPredictMB(b *testing.B) {
	for _, c := range predictCases {
		b.Run(c.name, func(b *testing.B) {
			op := predictMBOp(c.px, c.py, c.mv)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// rcFrame is the rate-control and entropy-coder fixture: an encoder whose
// reference is one textured frame, the next frame (another texture, shifted),
// its motion analysis and its inter-DCT cache.
func rcFrame(tb testing.TB) (*Encoder, *imgx.Plane, *MotionField, [][blockSize * blockSize]int32) {
	enc, err := NewEncoder(DefaultConfig(320, 192))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := enc.Encode(texturedFrame(320, 192, 11), EncodeOptions{BaseQP: 20}); err != nil {
		tb.Fatal(err)
	}
	frame := shiftFrame(texturedFrame(320, 192, 12), 3, 1)
	mf := enc.AnalyzeMotion(frame)
	return enc, frame, mf, enc.buildInterDCTCache(frame, mf)
}

// rcTrialQPs are the QPs the rate-control trial rows run at: near-lossless,
// the clear-link and tight-link operating points, and the dead-zone regime
// where most inter blocks quantize to nothing.
var rcTrialQPs = []int{2, 12, 25, 40}

// rcTrialFixture returns, for a frame type and QP, one rate-control trial —
// a single countPass on rcFrame's frame, on a P-frame (every macroblock
// inter, fresh sensor noise as residual) or an I-frame — with the trial
// scratch warmed by one first pass.
func rcTrialFixture(tb testing.TB) func(ft FrameType, qp int) func() {
	enc, frame, mf, cache := rcFrame(tb)
	return func(ft FrameType, qp int) func() {
		op := func() { benchSink = enc.countPass(frame, ft, mf, cache, qp, nil) }
		op()
		return op
	}
}

// BenchmarkRCTrial times one rate-control trial per op, on a P- and an
// I-frame at each of rcTrialQPs.
func BenchmarkRCTrial(b *testing.B) {
	trial := rcTrialFixture(b)
	for _, ft := range []FrameType{PFrame, IFrame} {
		for _, qp := range rcTrialQPs {
			b.Run(fmt.Sprintf("%v/qp%d", ft, qp), func(b *testing.B) {
				op := trial(ft, qp)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
	}
}

// encodeIFrameOp encodes one forced I-frame per op the way the agent
// answers an outage: motion analysis (analytics want vectors on I-frames
// too), the rate-control bisection at the tight link's budget (1.2 Mbit/s at
// 30 frames/s) scaled by IFrameBudgetScale 3, the final pass and the
// hand-out. Two shifted frames alternate, so every op is analysed against a
// different reference; four ops warm it up.
func encodeIFrameOp(tb testing.TB) func() {
	enc, err := NewEncoder(DefaultConfig(320, 192))
	if err != nil {
		tb.Fatal(err)
	}
	frames := []*imgx.Plane{texturedFrame(320, 192, 11), shiftFrame(texturedFrame(320, 192, 11), 3, 1)}
	opts := EncodeOptions{TargetBits: 40_000, IFrameBudgetScale: 3, ForceIFrame: true}
	i := 0
	op := func() {
		f := frames[i%2]
		i++
		enc.AnalyzeMotion(f)
		ef, err := enc.Encode(f, opts)
		if err != nil {
			tb.Fatal(err)
		}
		if ef.Type != IFrame {
			tb.Fatalf("frame %d is %v, want a forced I-frame", ef.Index, ef.Type)
		}
	}
	for i := 0; i < 4; i++ {
		op()
	}
	return op
}

// BenchmarkEncodeIFrame times encodeIFrameOp: one I-frame per op.
func BenchmarkEncodeIFrame(b *testing.B) {
	op := encodeIFrameOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// rcSearch is one budget script of the rate-control search rows. "steady"
// repeats one budget (the clear-link operating point, QP 12); "swinging"
// multiplies the budget by 4 and back every four frames; "alternating"
// doubles it every other frame, a period-two QP as on a tight link; "cold"
// resets the model before every search, an encoder's first P-frame every
// time: the floor is probed first, which at this budget costs the
// bisection's five trials plus two.
type rcSearch struct {
	name  string
	scale [8]int
	cold  bool
}

var rcSearches = []rcSearch{
	{"steady", [8]int{1, 1, 1, 1, 1, 1, 1, 1}, false},
	{"swinging", [8]int{1, 1, 1, 1, 4, 4, 4, 4}, false},
	{"alternating", [8]int{1, 2, 1, 2, 1, 2, 1, 2}, false},
	{"cold", [8]int{1, 1, 1, 1, 1, 1, 1, 1}, true},
}

// rcSearchFixture returns, for a budget script, the rate-control search
// alone — searchBaseQP over rcFrame's cached coefficients, the encoder's
// model carried from call to call as AnalyzeAndQuantize carries it — as a
// function that returns the trials each search ran. The model starts empty:
// the first search has no history.
func rcSearchFixture(tb testing.TB) func(c rcSearch) func() int {
	enc, frame, mf, cache := rcFrame(tb)
	budget := (enc.countPass(frame, PFrame, mf, cache, 12, nil) + enc.countPass(frame, PFrame, mf, cache, 11, nil)) / 2
	return func(c rcSearch) func() int {
		enc.rc = rcModel{k: 6}
		i := -1
		return func() int {
			if c.cold {
				enc.rc = rcModel{k: 6}
			}
			_, n, _ := enc.searchBaseQP(frame, PFrame, mf, cache, 0, EncodeOptions{TargetBits: budget * c.scale[(i+8)%8]})
			i++
			return n
		}
	}
}

// BenchmarkRCSearch times one search per op over each of rcSearches, after
// the first, and reports the trial passes it ran per frame.
func BenchmarkRCSearch(b *testing.B) {
	start := rcSearchFixture(b)
	for _, c := range rcSearches {
		b.Run(c.name, func(b *testing.B) {
			search := start(c)
			search()
			trials := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trials += search()
			}
			b.ReportMetric(float64(trials)/float64(b.N), "probes/frame")
		})
	}
}

// interBlocks returns the transform blocks of rcFrame's inter macroblocks,
// for the entropy coder's benchmarks and the reader's test seeds.
func interBlocks(tb testing.TB) [][blockSize * blockSize]int32 {
	_, _, mf, cache := rcFrame(tb)
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

// entropyQPs are the QPs of the entropy coder's rows: near-lossless, where
// every coefficient is coded, and the clear-link operating point, where
// blocks hold a few.
var entropyQPs = []int{2, 25}

// writeCoeffsOp returns the entropy writer alone: writeCoeffs over every
// block of interBlocks quantized at qp, into a writer that is Reset and
// refilled. One first frame grows the writer's buffer.
func writeCoeffsOp(coded [][blockSize * blockSize]int32, qp int) func() {
	levels, masks := codeBlocks(coded, qp)
	var w BitWriter
	op := func() {
		w.Reset()
		for k := range levels {
			writeCoeffs(&w, &levels[k], masks[k])
		}
		benchSink = w.Len()
	}
	op()
	return op
}

// BenchmarkWriteCoeffs times writeCoeffsOp: one frame's blocks per op.
func BenchmarkWriteCoeffs(b *testing.B) {
	coded := interBlocks(b)
	for _, qp := range entropyQPs {
		b.Run(fmt.Sprintf("qp%d", qp), func(b *testing.B) {
			op := writeCoeffsOp(coded, qp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// readCoeffsOp is writeCoeffsOp read back: readCoeffs over the same frame's
// blocks, written one after another as the decoder meets them. It also
// returns the bytes one op reads.
func readCoeffsOp(tb testing.TB, coded [][blockSize * blockSize]int32, qp int) (func(), int) {
	levels, masks := codeBlocks(coded, qp)
	var w BitWriter
	for k := range levels {
		writeCoeffs(&w, &levels[k], masks[k])
	}
	data := w.Bytes()
	var got [blockSize * blockSize]int32
	return func() {
		r := BitReader{buf: data}
		for range levels {
			if _, err := readCoeffs(&r, &got); err != nil {
				tb.Fatal(err)
			}
		}
	}, len(data)
}

// BenchmarkReadCoeffs times readCoeffsOp: one frame's blocks per op.
func BenchmarkReadCoeffs(b *testing.B) {
	coded := interBlocks(b)
	for _, qp := range entropyQPs {
		b.Run(fmt.Sprintf("qp%d", qp), func(b *testing.B) {
			op, n := readCoeffsOp(b, coded, qp)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

var benchSink int
