package codec

import (
	"fmt"
	"math"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// Two-phase encoding. Encode is AnalyzeAndQuantize (motion analysis, rate
// control, then one final quantizePass that quantizes, reconstructs and
// writes the bitstream) followed by EmitBitstream (the hand-out). A
// rate-control trial is the same quantizePass without a writer: it counts.

// FrameJob is one encoded frame carried from AnalyzeAndQuantize to
// EmitBitstream. An encoder owns exactly one, reused for every frame, so
// each analyzed frame must be emitted before the next is analyzed.
type FrameJob struct {
	// Frame is the encoded frame: every field except Data is final when
	// AnalyzeAndQuantize returns; EmitBitstream fills Data, hands the frame
	// out and sets Frame to nil (consumed).
	Frame *EncodedFrame
	// qps is the per-MB QP array the job's frame hands out.
	qps []int
	// frame and bw are the hand-out storage, reused for every frame: the
	// EncodedFrame the caller receives and the bitstream writer the final
	// quantizePass fills, whose backing buffer becomes Data. bw reaches a
	// grow-once steady state via Reset.
	frame EncodedFrame
	bw    BitWriter
}

// trialScratch is the one macroblock of working set every quantizePass,
// trial or final, runs on. The per-MB coded-MV array feeds the MV predictor;
// the recon plane exists only for intra trials (intra prediction is causal
// in the reconstruction) and is allocated by the first intra trial.
type trialScratch struct {
	mvs   []MV
	recon *imgx.Plane
	// levels/masks receive one inter macroblock's quantizer output at a
	// time: the final pass writes and reconstructs from them, a trial
	// discards them after counting.
	levels [4 * blockSize * blockSize]int32
	masks  [4]uint64
}

// AnalyzeAndQuantize runs phase one of the two-phase encode: frame-type
// decision, motion analysis, rate control, transform, quantization,
// reconstruction and the bitstream itself. It fails if the written bitstream
// is not exactly as long as the counted one. On return the encoder's
// reference state has advanced and the returned job — the encoder's one
// job — holds the finished frame. It must be emitted before the next
// AnalyzeAndQuantize, which otherwise fails rather than overwrite it.
func (e *Encoder) AnalyzeAndQuantize(frame *imgx.Plane, opts EncodeOptions) (*FrameJob, error) {
	if e.job != nil && e.job.Frame != nil {
		return nil, fmt.Errorf("codec: frame %d was analyzed but not emitted", e.job.Frame.Index)
	}
	if frame.W != e.cfg.Width || frame.H != e.cfg.Height {
		return nil, fmt.Errorf("codec: frame size %dx%d does not match config %dx%d", frame.W, frame.H, e.cfg.Width, e.cfg.Height)
	}
	if opts.QPOffsets != nil && len(opts.QPOffsets) != e.mbw*e.mbh {
		return nil, fmt.Errorf("codec: QP offset map has %d entries, want %d", len(opts.QPOffsets), e.mbw*e.mbh)
	}
	ftype := PFrame
	if e.ref == nil || opts.ForceIFrame || (e.cfg.GoPSize <= 1) || (e.frameIdx%e.cfg.GoPSize == 0) {
		ftype = IFrame
	}
	var mf *MotionField
	if e.ref != nil {
		// Analytics want MVs on I-frames too; compute but do not predict
		// from them.
		mf = e.AnalyzeMotion(frame)
	}

	baseQP := clampQP(opts.BaseQP)
	minQP := clampQP(opts.MinQP)
	if baseQP < minQP {
		baseQP = minQP
	}
	if ftype == IFrame && opts.IFrameBudgetScale > 1 && opts.TargetBits > 0 {
		opts.TargetBits = int(float64(opts.TargetBits) * opts.IFrameBudgetScale)
	}
	var dctCache [][blockSize * blockSize]int32
	if ftype == PFrame {
		dctCache = e.buildInterDCTCache(frame, mf)
	}

	var rcTrace []obs.QPTrial
	if opts.TargetBits > 0 {
		baseQP, _, rcTrace = e.searchBaseQP(frame, ftype, mf, dctCache, minQP, opts)
	}
	if e.job == nil {
		e.job = &FrameJob{qps: make([]int, e.mbw*e.mbh)}
	}
	job := e.job
	nbits := e.quantizePass(frame, ftype, mf, dctCache, baseQP, opts.QPOffsets, job, math.MaxInt)
	if job.bw.Len() != nbits {
		return nil, fmt.Errorf("codec: wrote %d bits for frame %d, counted %d", job.bw.Len(), e.frameIdx, nbits)
	}

	e.ref, e.spare = e.spare, e.ref
	e.analyzed, e.motion = nil, nil
	idx := e.frameIdx
	e.frameIdx++

	job.frame = EncodedFrame{
		Type: ftype, Index: idx, BaseQP: baseQP,
		MBW: e.mbw, MBH: e.mbh,
		Motion: mf, QPs: job.qps,
		NumBits:  nbits,
		RCTrials: rcTrace,
	}
	job.Frame = &job.frame
	return job, nil
}

// searchBaseQP is rate control: it returns the base QP the bisection over
// [minQP, 51] ends on — the lowest whose trial pass fits opts.TargetBits when
// fitting is monotone in QP, 51 unprobed — with the number of trial passes it
// ran and, when telemetry is on, every trial in run order. MinQP floors the
// search: degradation ladders use it to keep a struggling link from being
// handed finely-quantized frames it cannot carry. Only the bounded path (a
// P-frame with non-negative offsets) reads a count past "fits"; elsewhere a
// trial stops after the macroblock row where it passes the target.
func (e *Encoder) searchBaseQP(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, minQP int, opts EncodeOptions) (baseQP, trials int, trace []obs.QPTrial) {
	bounded := ftype == PFrame && offsetsNonNegative(opts.QPOffsets)
	stop, coded := opts.TargetBits, 0
	if bounded {
		stop = math.MaxInt
		for _, m := range mf.Modes {
			if m != ModeSkip {
				coded++
			}
		}
	}
	baseQP, trials = e.rc.search(minQP, opts.TargetBits, coded, bounded, func(q int) int {
		bits := e.quantizePass(frame, ftype, mf, dctCache, q, opts.QPOffsets, nil, stop)
		if e.cfg.Obs != nil {
			trace = append(trace, obs.QPTrial{QP: q, Bits: bits})
		}
		return bits
	})
	return baseQP, trials, trace
}

// rcModel is what P-frame rate control has learnt: the last bounded P-frame
// (bits 0 where none) and k, the QP it takes to halve a frame's bits.
type rcModel struct {
	last struct{ qp, bits, coded int }
	k    float64
}

// search walks the bisection over [minQP, 51] (walk) and runs a trial at the
// first step the trials so far leave unsettled, until none is. On the bounded
// path up to three of them are instead probes aimed at the answer (aim). A
// probe off the path costs a trial the bisection would not have run, so the
// next one runs only while probes ≤ 1 + the steps settled without a trial of
// their own: no frame costs more than the bisection's trials plus two.
func (r *rcModel) search(minQP, target, coded int, bounded bool, trial func(q int) int) (qp, trials int) {
	memo, walked, probes, last := noTrials, uint64(0), 0, [2]int{-1, -1}
	for {
		mid, credit, done := walk(&memo, walked, minQP, target, bounded)
		if done {
			qp = mid
			break
		}
		q := mid
		if bounded && probes < 3 && probes-credit < 2 {
			if a := r.aim(&memo, last, minQP, target, coded); a >= 0 && a != mid {
				q = a
				probes++
			}
		}
		if q == mid {
			walked |= 1 << q
		}
		memo[q] = trial(q)
		last = [2]int{q, last[0]}
		trials++
	}
	if bounded && qp < 51 && memo[qp] > 0 {
		r.last.qp, r.last.bits, r.last.coded = qp, memo[qp], coded
		if qp > minQP && memo[qp-1] > memo[qp] {
			r.k = min(max((r.k+1/math.Log2(float64(memo[qp-1])/float64(memo[qp])))/2, 5), 10)
		}
	}
	return qp, trials
}

// aim returns the QP to probe next, or -1: the untried one the model takes
// for the answer or, when that is the lowest fitting trial f, f−1. It carries
// a point (q, bits) to the target along a slope, x = q + k·log2(bits/target):
// the last trial along the log-secant through the last two (k if that does
// not fall), or before any trial the last frame, its bits scaled by coded
// over its own (no frame yet: bits 0, x = −∞, lo).
func (r *rcModel) aim(memo *[52]int, last [2]int, lo, target, coded int) int {
	q, bits, k := r.last.qp, float64(r.last.bits)*float64(coded+1)/float64(r.last.coded+1), r.k
	if a, b := last[0], last[1]; a >= 0 {
		q, bits = a, float64(memo[a])
		if b >= 0 && (b-a)*(memo[a]-memo[b]) > 0 {
			k = float64(b-a) / math.Log2(bits/float64(memo[b]))
		}
	}
	x := float64(q) + k*math.Log2(bits/float64(target))
	m, f := lo-1, 51 // the bracket: the lowest fitting trial f, the trial m below it
	for i := lo; i < 51 && f == 51; i++ {
		if memo[i] > target {
			m = i
		} else if memo[i] >= 0 {
			f = i
		}
	}
	if f-1 <= m {
		return -1
	}
	return max(int(math.Ceil(min(max(x, float64(m)), float64(f-1)))), m+1)
}

// walk follows the bisection over [lo, 51] as far as memo (or, bounded,
// impliedFit) settles it: to the answer (done) or the first step left
// unsettled, with the number of steps before it settled without a trial the
// walk ran there (walked).
func walk(memo *[52]int, walked uint64, lo, target int, bounded bool) (q, credit int, done bool) {
	hi := 51
	for lo < hi {
		mid := (lo + hi) / 2
		bits := memo[mid]
		fits, known := bits <= target, bits >= 0
		if !known && bounded {
			fits, known = impliedFit(memo, mid, target)
		}
		if !known {
			return mid, credit, false
		}
		credit += int(^walked >> mid & 1)
		if fits {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, credit, true
}

// noTrials is a rate-control memo before any trial ran: -1 bits at every QP.
var noTrials = func() (memo [52]int) {
	for i := range memo {
		memo[i] = -1
	}
	return memo
}()

// impliedFit reports whether a P-frame trial at base QP mid would fit target,
// when the counts in memo (-1 where no trial ran) decide it. With
// non-negative QP offsets every part of the count is non-increasing in the
// base QP — quantizer levels shrink, blockBits does not grow when a level
// shortens or drops out, each per-MB delta min(offset, 51 − baseQP) shrinks,
// modes and vectors do not depend on the QP — except the header's
// ue(baseQP). So bits(q) − ueBits(q) is non-increasing, and the nearest
// trial at or below mid bounds the count at mid from above, the nearest at or
// above from below.
func impliedFit(memo *[52]int, mid, target int) (fits, known bool) {
	for q := mid; q >= 0; q-- {
		if memo[q] >= 0 {
			if memo[q]-ueBits(uint32(q))+ueBits(uint32(mid)) <= target {
				return true, true
			}
			break
		}
	}
	for q := mid; q < len(memo); q++ {
		if memo[q] >= 0 {
			if memo[q]-ueBits(uint32(q))+ueBits(uint32(mid)) > target {
				return false, true
			}
			break
		}
	}
	return false, false
}

func offsetsNonNegative(offsets []int) bool {
	for _, o := range offsets {
		if o < 0 {
			return false
		}
	}
	return true
}

// quantizePass is the encoder's one macroblock walk: per-MB QP, the skip
// decision and MV prediction are stated here and nowhere else, and every
// symbol goes through its syntax element's put (syntax.go), so a
// rate-control trial and the final pass cannot disagree on them. It returns
// the exact number of bits the final pass writes for frame at baseQP (a
// trial returns early, after the row where the count passes stop). Both
// modes run on the encoder's one-macroblock scratch (e.trial); what differs
// is what becomes of a macroblock once it is quantized:
//
//   - final pass (job non-nil): every symbol is written into job.bw by the
//     put that counts it, per-MB QPs are stored in the job, every
//     macroblock is reconstructed into the encoder's spare plane and the
//     loop filter runs. Every pixel of that plane is written in raster order
//     before any read (skip/inter compensation and causal intra prediction
//     both are), so its stale content from two frames back is never
//     observed.
//   - trial (job nil): nothing is written; inter macroblocks are only
//     counted (nothing is reconstructed), intra ones are reconstructed into
//     the scratch plane, because intra prediction is causal in the
//     reconstruction.
//
// A trial touches no encoder state outside e.trial. The coded-MV array is
// reused without zeroing: the predictor only reads cells the same pass wrote
// earlier in raster order.
func (e *Encoder) quantizePass(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, baseQP int, offsets []int, job *FrameJob, stop int) int {
	t := &e.trial
	if t.mvs == nil {
		t.mvs = make([]MV, e.mbw*e.mbh)
	}
	codedMVs := t.mvs
	levels, masks := t.levels[:], t.masks[:]
	var recon *imgx.Plane
	var w *BitWriter // nil in a trial
	if job != nil {
		if e.spare == nil {
			e.spare = imgx.NewPlane(e.cfg.Width, e.cfg.Height)
		}
		recon = e.spare
		recon.Bump()
		w = &job.bw
		w.Reset()
	} else if ftype == IFrame {
		if t.recon == nil {
			t.recon = imgx.NewPlane(e.cfg.Width, e.cfg.Height)
		}
		recon = t.recon
	}

	bits := frameHeader{ftype, uint32(baseQP), uint32(e.mbw), uint32(e.mbh), e.cfg.SubPel, e.cfg.Deblock}.put(w)

	for by := 0; by < e.mbh && bits <= stop; by++ {
		for bx := 0; bx < e.mbw; bx++ {
			i := by*e.mbw + bx
			qp := baseQP
			if offsets != nil {
				qp = clampQP(baseQP + offsets[i])
			}
			px, py := bx*MBSize, by*MBSize
			if job != nil {
				job.qps[i] = qp
			}

			if ftype == IFrame {
				bits += mbHeader{mode: ModeIntra, dqp: int32(qp - baseQP)}.put(w) + quantizeIntraMB(frame, recon, px, py, qp, w)
				continue
			}

			mode := mf.Modes[i]
			mv := mf.MVs[i]
			pred := predictMV(codedMVs, e.mbw, bx, by)
			if mode == ModeSkip && mv == pred {
				bits += mbHeader{mode: ModeSkip}.put(w)
				codedMVs[i] = pred
				if w != nil {
					predictBlock(recon.Pix[py*recon.W+px:], recon.W, e.ref, px, py, pred, e.cfg.SubPel)
				}
				continue
			}
			bits += mbHeader{ModeInter, int32(mv.X) - int32(pred.X), int32(mv.Y) - int32(pred.Y), int32(qp - baseQP)}.put(w)
			codedMVs[i] = mv
			bits += quantizeInterMB(dctCache[i*4:i*4+4], e.dctOr[i*4:i*4+4], qp, levels, masks, w)
			if w != nil {
				reconstructInterMB(recon, e.ref, px, py, mv, e.cfg.SubPel, levels, masks, qp)
			}
		}
	}
	if job != nil {
		if e.cfg.Deblock {
			deblockFrame(recon, job.qps, e.mbw)
		}
		recon.Bump()
	}
	return bits
}

// quantizeInterMB quantizes one inter macroblock from its cached
// fixed-point DCT blocks into out (4 × 64 levels) and masksOut (4 zigzag
// significance masks), writes each block to w when w is non-nil, and returns
// the exact bit cost of entropy-coding the levels. The cache is
// QP-independent, so quantization is the only per-QP work, and a block whose
// magnitude bound (or, Encoder.dctOr) sits under the quantizer's dead zone
// has no nonzero level at this QP: it costs its empty coded-block flag, its
// mask is 0 and its coefficients are never read. Its level slots keep
// whatever they held — neither the writer nor reconstruction reads the
// levels of a block whose mask is 0.
func quantizeInterMB(dctBlocks [][blockSize * blockSize]int32, or []uint32, qp int, out []int32, masksOut []uint64, w *BitWriter) int {
	n := 0
	for blk := range dctBlocks {
		if or[blk] < zeroBelow[qp] {
			masksOut[blk] = 0
			n++
			if w != nil {
				w.WriteBit(0) // coded-block flag: empty
			}
			continue
		}
		levels := (*[blockSize * blockSize]int32)(out[blk*blockSize*blockSize:])
		mask, bits := codeBlock(&dctBlocks[blk], qp, levels)
		masksOut[blk] = mask
		n += bits
		if w != nil {
			writeCoeffs(w, levels, mask)
		}
	}
	return n
}

// quantizeIntraMB codes one intra macroblock block by block — prediction,
// transform, quantization, each block's mode and levels written to w when w
// is non-nil, reconstruction — and returns the exact bit cost of the
// per-block mode symbols and levels. A block whose magnitude bound sits
// under the dead zone codes as its empty flag without being quantized, as in
// quantizeInterMB.
func quantizeIntraMB(cur, recon *imgx.Plane, px, py int, qp int, w *BitWriter) int {
	var pred [blockSize * blockSize]uint8
	var dct, levels [blockSize * blockSize]int32
	bits := 0
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			mode := chooseIntra(cur, recon, px+bx, py+by, &pred)
			bits += intraMode(mode).put(w)
			mask, n := uint64(0), 1 // coded-block flag: empty
			if fdctResidual(cur.Pix[(py+by)*cur.W+px+bx:], cur.W, pred[:], blockSize, &dct) >= zeroBelow[qp] {
				mask, n = codeBlock(&dct, qp, &levels)
			}
			bits += n
			if w != nil {
				writeCoeffs(w, &levels, mask)
			}
			reconstructBlock(recon, px+bx, py+by, pred[:], blockSize, &levels, mask, qp)
		}
	}
	return bits
}

// EmitBitstream runs phase two: it hands out the frame AnalyzeAndQuantize
// finished, its Data aliasing the job's writer (see EncodedFrame for how
// long). It consumes the job, whatever the outcome: a job is emitted exactly
// once.
func (e *Encoder) EmitBitstream(job *FrameJob) (*EncodedFrame, error) {
	if job == nil || job.Frame == nil {
		return nil, fmt.Errorf("codec: EmitBitstream on a consumed or nil job")
	}
	if job != e.job {
		return nil, fmt.Errorf("codec: EmitBitstream on a job from a different encoder")
	}
	ef := job.Frame
	job.Frame = nil
	ef.Data = job.bw.Bytes()
	return ef, nil
}
