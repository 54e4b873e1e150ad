package codec

import "dive/internal/imgx"

// Rate-control trial passes. A trial only needs the frame's exact bit count
// at a candidate base QP — never its bytes — and every symbol length is
// known arithmetically (ueBits/seBits/coeffsBits mirror the writers
// exactly), so a trial is quantizePass run without a job: the same walk as
// the final pass, quantizing into one macroblock of scratch and summing
// lengths without touching a BitWriter.

// trialScratch is one trial pass's working set. The per-MB coded-MV array
// feeds the MV predictor; the recon plane exists only for intra trials
// (intra prediction is causal in the reconstruction) and is allocated by the
// first intra trial that uses this scratch. Scratch is recycled through
// Encoder.trials because speculative probes run one trial per worker
// concurrently.
type trialScratch struct {
	mvs   []MV
	recon *imgx.Plane
	// levels/imodes/nz receive one macroblock's quantizeIntraMB output at a
	// time; trials discard them after counting.
	levels [4 * blockSize * blockSize]int32
	imodes [4]uint8
	nz     [4]uint8
}

// countPass returns the exact number of bits a final encode of frame at
// baseQP would emit: quantizePass as a trial, on scratch recycled through
// Encoder.trials. Safe to run concurrently with itself: all mutable state
// lives in the per-call trial scratch.
func (e *Encoder) countPass(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, baseQP int, offsets []int) int {
	t := e.trials.Get()
	if t == nil {
		t = &trialScratch{mvs: make([]MV, e.mbw*e.mbh)}
	}
	defer e.trials.Put(t)
	return e.quantizePass(frame, ftype, mf, dctCache, baseQP, offsets, nil, t)
}

// countInterMB returns the exact entropy-coded length of one inter
// macroblock's quantized levels without reconstructing anything — the
// cached DCT blocks are QP-independent, so the reciprocal-multiply
// quantization is the only remaining per-QP work.
func countInterMB(dctBlocks [][blockSize * blockSize]int32, qp int) int {
	var levels [blockSize * blockSize]int32
	bits := 0
	for blk := 0; blk < 4; blk++ {
		nz := quantizeBlockFixed(&dctBlocks[blk], qp, &levels)
		bits += coeffsBits(&levels, nz)
	}
	return bits
}
