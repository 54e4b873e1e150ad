package codec

import (
	"fmt"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// Two-phase encoding. Encode is split into AnalyzeAndQuantize (motion
// analysis, rate control, transform, quantization and reconstruction — the
// part the next frame depends on) and EmitBitstream (entropy serialization —
// the part nothing downstream of the encoder state depends on).
// Reconstruction is a function of the quantized coefficients only, never of
// the written bits, so the encoder reference advances at the end of phase one.
// NumBits is computed arithmetically in phase one (exact, verified against the
// writer in EmitBitstream), so rate control only ever counts, and
// rate-dependent consumers (the link simulator, rate estimators) can run
// before the bytes exist.

// FrameJob is one frame's encode carried between AnalyzeAndQuantize and
// EmitBitstream: the quantized coefficient grid and coded modes/vectors. An
// encoder owns exactly one, reused for every frame, so each analyzed frame
// must be emitted before the next is analyzed.
type FrameJob struct {
	// Frame is the encoded frame under construction: every field except
	// Data is final when AnalyzeAndQuantize returns; EmitBitstream fills
	// Data, hands the frame out and sets Frame to nil (consumed).
	Frame *EncodedFrame

	// modes/mvs are the coded per-MB decisions (mvs is the codedMVs array
	// the emit-side MV predictor replays). intraModes holds 4 per-block
	// directional modes per MB (I-frames only). levels is the full
	// quantized-coefficient grid, 4 blocks of 64 levels per MB; slots of
	// skip MBs and of inter blocks inside the dead zone (mask 0,
	// quantizeInterMB) are stale garbage and never read, exactly like the
	// recycled inter-DCT cache.
	modes      []MBMode
	mvs        []MV
	intraModes []uint8
	levels     []int32
	// masks holds each transform block's zigzag significance mask, the one
	// codeBlock priced it by, so EmitBitstream's writeCoeffs visits only
	// the coded coefficients and reconstruction skips empty blocks.
	masks []uint64
	// qps is the per-MB QP array the job's frame hands out, and the
	// encoder's refQPs for the next frame's skip thresholds.
	qps []int
	// frame and bw are the hand-out storage reused in ReuseFrames mode:
	// the EncodedFrame the caller receives and the bitstream writer whose
	// backing buffer becomes Data. bw reaches a grow-once steady state via
	// Reset. Without ReuseFrames, EmitBitstream copies out of them instead.
	frame EncodedFrame
	bw    BitWriter
}

// block returns the levels of transform block blk (0..3) of macroblock i.
func (j *FrameJob) block(i, blk int) *[blockSize * blockSize]int32 {
	off := (i*4 + blk) * blockSize * blockSize
	return (*[blockSize * blockSize]int32)(j.levels[off : off+blockSize*blockSize])
}

// mb returns macroblock i's slots: 4 × 64 levels, 4 intra modes and 4
// significance masks.
func (j *FrameJob) mb(i int) (levels []int32, imodes []uint8, masks []uint64) {
	const n = 4 * blockSize * blockSize
	return j.levels[i*n : (i+1)*n], j.intraModes[i*4 : i*4+4], j.masks[i*4 : i*4+4]
}

// newJob allocates the encoder's job. Its slots are reused without zeroing:
// the final pass writes every one it later emits, and the emit-side MV
// predictor only reads cells the same frame wrote earlier in raster order.
func (e *Encoder) newJob() *FrameJob {
	n := e.mbw * e.mbh
	return &FrameJob{
		modes:      make([]MBMode, n),
		mvs:        make([]MV, n),
		intraModes: make([]uint8, n*4),
		levels:     make([]int32, n*4*blockSize*blockSize),
		masks:      make([]uint64, n*4),
		qps:        make([]int, n),
	}
}

// AnalyzeAndQuantize runs phase one of the two-phase encode: frame-type
// decision, motion analysis, rate control, transform, quantization and
// reconstruction. On return the encoder's reference state has advanced and
// the returned job — the encoder's one job — carries everything
// EmitBitstream needs to serialize the bitstream. It must be emitted before
// the next AnalyzeAndQuantize, which otherwise fails rather than overwrite
// it.
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
		dctTimer := e.cfg.Obs.StartStage(obs.StageCodecDCT)
		dctCache = e.buildInterDCTCache(frame, mf)
		dctTimer.Stop()
	}

	var rcTrace []obs.QPTrial
	if opts.TargetBits > 0 {
		rcTimer := e.cfg.Obs.StartStage(obs.StageCodecRC)
		var trials int
		baseQP, trials, rcTrace = e.searchBaseQP(frame, ftype, mf, dctCache, minQP, opts)
		e.cfg.Obs.Counter(obs.MetricRCTrials).Add(int64(trials))
		rcTimer.Stop()
	}
	entropyTimer := e.cfg.Obs.StartStage(obs.StageCodecEntropy)
	if e.job == nil {
		e.job = e.newJob()
	}
	job := e.job
	nbits := e.quantizePass(frame, ftype, mf, dctCache, baseQP, opts.QPOffsets, job, nil)
	entropyTimer.Stop()

	e.ref, e.spare = e.spare, e.ref
	e.refQPs = job.qps
	e.analyzed, e.motion = nil, nil
	e.noteBaseQP(baseQP)
	idx := e.frameIdx
	e.frameIdx++

	// Hand-out storage: the job's own in ReuseFrames mode,
	// freshly copied otherwise (so callers may retain frames indefinitely).
	qps := job.qps
	if e.cfg.ReuseFrames {
		job.Frame = &job.frame
	} else {
		job.Frame = &EncodedFrame{}
		qps = append([]int(nil), job.qps...)
	}
	*job.Frame = EncodedFrame{
		Type: ftype, Index: idx, BaseQP: baseQP,
		MBW: e.mbw, MBH: e.mbh,
		Motion: mf, QPs: qps,
		NumBits:  nbits,
		RCTrials: rcTrace,
	}
	return job, nil
}

// searchBaseQP is rate control: it returns the base QP the bisection over
// [minQP, 51] ends on — the lowest whose trial pass (countPass) fits
// opts.TargetBits when fitting is monotone in QP, 51 unprobed — with the
// number of trial passes it ran and, when telemetry is on, the trials the
// bisection consulted. MinQP floors the search: degradation ladders use it
// to keep a struggling link from being handed finely-quantized frames it
// cannot carry.
//
// Every frame walks the same bisection; what differs is how a step learns
// whether its midpoint fits. An I-frame's bits are not monotone in QP (intra
// modes depend on the reconstruction), so each step needs that QP's exact
// count: a trial pass. A P-frame's counts bound one another (impliedFit), so
// a step that earlier trials settle costs nothing — and while the base QP
// holds still (warmStartSpan) the two trials that settle most steps run
// first: at the previous frame's QP and at its neighbour on the side that
// failed. They are the whole search if the answer has not moved, and
// otherwise the only two trials the plain bisection would not have run itself
// (DESIGN.md §8 "Rate control").
func (e *Encoder) searchBaseQP(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, minQP int, opts EncodeOptions) (baseQP, trials int, trace []obs.QPTrial) {
	target := opts.TargetBits
	lo, hi := minQP, 51
	bounded := ftype == PFrame && offsetsNonNegative(opts.QPOffsets)
	warm := bounded && lo < hi && e.lastQP >= 0 && e.qpStep < warmStartSpan
	memo := noTrials
	if warm {
		q := e.lastQP
		if q < lo {
			q = lo
		} else if q >= hi {
			q = hi - 1
		}
		memo[q] = e.countPass(frame, ftype, mf, dctCache, q, opts.QPOffsets)
		trials++
		if memo[q] <= target {
			q--
		} else {
			q++
		}
		if q >= lo && q < hi {
			memo[q] = e.countPass(frame, ftype, mf, dctCache, q, opts.QPOffsets)
			trials++
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		bits := memo[mid]
		fits, known := bits <= target, bits >= 0
		if !known && bounded {
			fits, known = impliedFit(&memo, mid, target)
		}
		if !known {
			bits = e.countPass(frame, ftype, mf, dctCache, mid, opts.QPOffsets)
			memo[mid] = bits
			trials++
			fits = bits <= target
		}
		if bits >= 0 && e.cfg.Obs != nil {
			trace = append(trace, obs.QPTrial{QP: mid, Bits: bits})
		}
		if fits {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, trials, trace
}

// noTrials is a rate-control memo before any trial ran: -1 bits at every QP.
var noTrials = func() (memo [52]int) {
	for i := range memo {
		memo[i] = -1
	}
	return memo
}()

// noteBaseQP records a finished frame's base QP for the next search's warm
// start.
func (e *Encoder) noteBaseQP(qp int) {
	if e.lastQP >= 0 {
		e.qpStep = absInt(qp - e.lastQP)
	}
	e.lastQP = qp
}

// warmStartSpan is how far the base QP may have moved between the last two
// frames for the next search to start from it: less than the 6 QP that
// double the quantizer step. Past that (a link that fades frame by frame, a
// reference whose quality alternates) the previous QP predicts nothing and
// its two trials would only add to the bisection's.
const warmStartSpan = 6

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

// quantizePass is the encoder's one macroblock walk: header bits, per-MB QP,
// the skip decision, MV prediction and every symbol length are stated here
// and nowhere else, so a rate-control trial and the final pass cannot
// disagree on them. It returns the exact number of bits EmitBitstream will
// write for frame at baseQP. What differs is what becomes of a macroblock's
// levels:
//
//   - final pass (job non-nil, t nil): levels, modes, coded MVs and per-MB
//     QPs are stored in the job, every macroblock is reconstructed into the
//     encoder's spare plane and the loop filter runs. Every pixel of that
//     plane is written in raster order before any read (skip/inter
//     compensation and causal intra prediction both are), so its stale
//     content from two frames back is never observed.
//   - trial (job nil, t non-nil): every macroblock is quantized into one
//     macroblock of scratch; inter ones are only counted (nothing is
//     reconstructed), intra ones are reconstructed into t's plane, because
//     intra prediction is causal in the reconstruction.
//
// A trial touches no encoder state outside t.
func (e *Encoder) quantizePass(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, baseQP int, offsets []int, job *FrameJob, t *trialScratch) int {
	final := job != nil
	var recon *imgx.Plane
	var codedMVs []MV
	// Where a macroblock's levels, intra modes and significance masks go:
	// its slot in the job (picked per MB below), or the trial's one-MB
	// scratch.
	var levels []int32
	var imodes []uint8
	var masks []uint64
	if final {
		if e.spare == nil {
			e.spare = imgx.NewPlane(e.cfg.Width, e.cfg.Height)
		}
		recon = e.spare
		recon.Bump()
		codedMVs = job.mvs
	} else {
		codedMVs = t.mvs
		levels, imodes, masks = t.levels[:], t.imodes[:], t.masks[:]
		if ftype == IFrame {
			if t.recon == nil {
				t.recon = imgx.NewPlane(e.cfg.Width, e.cfg.Height)
			}
			recon = t.recon
		}
	}

	bits := ueBits(uint32(ftype)) + ueBits(uint32(baseQP)) +
		ueBits(uint32(e.mbw)) + ueBits(uint32(e.mbh)) + 2 // subpel + deblock flags

	for by := 0; by < e.mbh; by++ {
		for bx := 0; bx < e.mbw; bx++ {
			i := by*e.mbw + bx
			qp := baseQP
			if offsets != nil {
				qp = clampQP(baseQP + offsets[i])
			}
			px, py := bx*MBSize, by*MBSize
			if final {
				job.qps[i] = qp
				levels, imodes, masks = job.mb(i)
			}

			if ftype == IFrame {
				if final {
					job.modes[i] = ModeIntra
				}
				bits += ueBits(uint32(ModeIntra)) + seBits(int32(qp-baseQP)) +
					quantizeIntraMB(frame, recon, px, py, qp, levels, imodes, masks)
				continue
			}

			mode := mf.Modes[i]
			mv := mf.MVs[i]
			pred := predictMV(codedMVs, e.mbw, bx, by)
			if mode == ModeSkip && mv == pred {
				bits += ueBits(uint32(ModeSkip))
				codedMVs[i] = pred
				if final {
					job.modes[i] = ModeSkip
					predictBlock(recon.Pix[py*recon.W+px:], recon.W, e.ref, px, py, MBSize, MBSize, pred, e.cfg.SubPel)
				}
				continue
			}
			bits += ueBits(uint32(ModeInter)) +
				seBits(int32(mv.X)-int32(pred.X)) +
				seBits(int32(mv.Y)-int32(pred.Y)) +
				seBits(int32(qp-baseQP))
			codedMVs[i] = mv
			bits += quantizeInterMB(dctCache[i*4:i*4+4], e.dctOr[i*4:i*4+4], qp, levels, masks)
			if final {
				job.modes[i] = ModeInter
				reconstructInterMB(recon, e.ref, px, py, mv, e.cfg.SubPel, levels, masks, qp)
			}
		}
	}
	if final {
		if e.cfg.Deblock {
			deblockFrame(recon, job.qps, e.mbw)
		}
		recon.Bump()
	}
	return bits
}

// quantizeInterMB quantizes one inter macroblock from its cached
// fixed-point DCT blocks into out (4 × 64 levels) and masksOut (4 zigzag
// significance masks) and returns the exact bit cost of entropy-coding the
// levels. The cache is QP-independent, so quantization is the only per-QP
// work, and a block whose magnitude bound (or, Encoder.dctOr) sits under the
// quantizer's dead zone has no nonzero level at this QP: it costs its empty
// coded-block flag, its mask is 0 and its coefficients are never read. Its
// level slots keep whatever they held — neither the writer nor
// reconstruction reads the levels of a block whose mask is 0.
func quantizeInterMB(dctBlocks [][blockSize * blockSize]int32, or []uint32, qp int, out []int32, masksOut []uint64) int {
	n := 0
	for blk := range dctBlocks {
		if or[blk] < zeroBelow[qp] {
			masksOut[blk] = 0
			n++
			continue
		}
		mask, bits := codeBlock(&dctBlocks[blk], qp, (*[blockSize * blockSize]int32)(out[blk*blockSize*blockSize:]))
		masksOut[blk] = mask
		n += bits
	}
	return n
}

// quantizeIntraMB codes one intra macroblock's prediction, transform and
// quantization into out/modesOut/masksOut, reconstructs it, and returns the
// exact bit cost of the per-block mode symbols and levels.
func quantizeIntraMB(cur, recon *imgx.Plane, px, py int, qp int, out []int32, modesOut []uint8, masksOut []uint64) int {
	var pred [blockSize * blockSize]uint8
	var res, dct [blockSize * blockSize]int32
	bits := 0
	blk := 0
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			mode := chooseIntra(cur, recon, px+bx, py+by, &pred)
			modesOut[blk] = uint8(mode)
			bits += ueBits(uint32(mode))
			for y := 0; y < blockSize; y++ {
				row := cur.Pix[(py+by+y)*cur.W+px+bx:][:blockSize]
				for x, v := range row {
					res[y*blockSize+x] = int32(v) - int32(pred[y*blockSize+x])
				}
			}
			fdct8Fixed(&res, &dct)
			levels := (*[blockSize * blockSize]int32)(out[blk*blockSize*blockSize:])
			mask, n := codeBlock(&dct, qp, levels)
			masksOut[blk] = mask
			bits += n
			blk++
			reconstructBlock(recon, px+bx, py+by, pred[:], blockSize, levels, mask, qp)
		}
	}
	return bits
}

// EmitBitstream runs phase two: it serializes the job into the final
// bitstream, verifies the writer agrees with phase one's arithmetic bit
// count and returns the completed frame. It consumes the job, whatever the
// outcome: a job is emitted exactly once.
func (e *Encoder) EmitBitstream(job *FrameJob) (*EncodedFrame, error) {
	if job == nil || job.Frame == nil {
		return nil, fmt.Errorf("codec: EmitBitstream on a consumed or nil job")
	}
	if job != e.job {
		return nil, fmt.Errorf("codec: EmitBitstream on a job from a different encoder")
	}
	emitTimer := e.cfg.Obs.StartStage(obs.StageCodecEmit)
	defer emitTimer.Stop()

	ef := job.Frame
	job.Frame = nil
	// The writer (and its grow-once backing buffer) is job-owned.
	w := &job.bw
	w.Reset()
	w.WriteUE(uint32(ef.Type))
	w.WriteUE(uint32(ef.BaseQP))
	w.WriteUE(uint32(e.mbw))
	w.WriteUE(uint32(e.mbh))
	if e.cfg.SubPel {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
	if e.cfg.Deblock {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}

	for by := 0; by < e.mbh; by++ {
		for bx := 0; bx < e.mbw; bx++ {
			i := by*e.mbw + bx
			qp := ef.QPs[i]
			switch job.modes[i] {
			case ModeIntra:
				w.WriteUE(uint32(ModeIntra))
				w.WriteSE(int32(qp - ef.BaseQP))
				for blk := 0; blk < 4; blk++ {
					w.WriteUE(uint32(job.intraModes[i*4+blk]))
					writeCoeffs(w, job.block(i, blk), job.masks[i*4+blk])
				}
			case ModeSkip:
				w.WriteUE(uint32(ModeSkip))
			case ModeInter:
				mv := job.mvs[i]
				pred := predictMV(job.mvs, e.mbw, bx, by)
				w.WriteUE(uint32(ModeInter))
				w.WriteSE(int32(mv.X) - int32(pred.X))
				w.WriteSE(int32(mv.Y) - int32(pred.Y))
				w.WriteSE(int32(qp - ef.BaseQP))
				for blk := 0; blk < 4; blk++ {
					writeCoeffs(w, job.block(i, blk), job.masks[i*4+blk])
				}
			}
		}
	}
	if w.Len() != ef.NumBits {
		return nil, fmt.Errorf("codec: emitted %d bits for frame %d, phase one counted %d", w.Len(), ef.Index, ef.NumBits)
	}
	if e.cfg.ReuseFrames {
		ef.Data = w.Bytes() // aliases job.bw's buffer until the next emit
	} else {
		ef.Data = append([]byte(nil), w.Bytes()...)
	}
	return ef, nil
}

// Bit-length arithmetic mirroring the Exp-Golomb writers: ueBits(v) is the
// exact length WriteUE(v) appends, seBits the WriteSE counterpart
// (blockBits, the writeCoeffs mirror, lives in dct.go next to the writer).

func ueBits(v uint32) int { return 2*bitLen64(uint64(v)+1) - 1 }

func seBits(v int32) int { return ueBits(seToUE(v)) }
