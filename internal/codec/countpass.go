package codec

import "dive/internal/imgx"

// Rate-control trial passes. A trial only needs the frame's exact bit count
// at a candidate base QP — never its bytes — and every symbol length is
// known arithmetically (ueBits/seBits/blockBits mirror the writers
// exactly), so a trial is quantizePass run without a job: the same walk and
// the same block quantizer (codeBlock) as the final pass, summing lengths
// without touching a BitWriter.

// trialScratch is one trial pass's working set. The per-MB coded-MV array
// feeds the MV predictor; the recon plane exists only for intra trials
// (intra prediction is causal in the reconstruction) and is allocated by the
// first intra trial.
type trialScratch struct {
	mvs   []MV
	recon *imgx.Plane
	// levels/imodes/masks receive one macroblock's quantizer output at a
	// time: an intra trial's reconstruction reads the levels, every other
	// use discards them after counting.
	levels [4 * blockSize * blockSize]int32
	imodes [4]uint8
	masks  [4]uint64
}

// countPass returns the exact number of bits a final encode of frame at
// baseQP would emit: quantizePass as a trial, on the encoder's trial scratch.
func (e *Encoder) countPass(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, baseQP int, offsets []int) int {
	if e.trial.mvs == nil {
		e.trial.mvs = make([]MV, e.mbw*e.mbh)
	}
	return e.quantizePass(frame, ftype, mf, dctCache, baseQP, offsets, nil, &e.trial)
}
