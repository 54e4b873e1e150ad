package codec

import (
	"math/bits"

	"dive/internal/imgx"
)

// Rate-control trial passes. A trial only needs the frame's exact bit count
// at a candidate base QP — never its bytes — and every symbol length is
// known arithmetically (ueBits/seBits/coeffsBits mirror the writers
// exactly), so a trial is quantizePass run without a job: the same walk as
// the final pass, summing lengths without touching a BitWriter. An inter
// block's length depends only on where its nonzero levels sit and how long
// their magnitudes are (blockBits), so inter trials count straight off the
// cached coefficients and store no level at all.

// trialScratch is one trial pass's working set. The per-MB coded-MV array
// feeds the MV predictor; the recon plane exists only for intra trials
// (intra prediction is causal in the reconstruction) and is allocated by the
// first intra trial.
type trialScratch struct {
	mvs   []MV
	recon *imgx.Plane
	// levels/imodes/nz receive one macroblock's quantizeIntraMB output at a
	// time (the reconstruction needs the levels); intra trials discard them
	// after counting, inter trials never use them.
	levels [4 * blockSize * blockSize]int32
	imodes [4]uint8
	nz     [4]uint8
}

// countPass returns the exact number of bits a final encode of frame at
// baseQP would emit: quantizePass as a trial, on the encoder's trial scratch.
func (e *Encoder) countPass(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, baseQP int, offsets []int) int {
	if e.trial.mvs == nil {
		e.trial.mvs = make([]MV, e.mbw*e.mbh)
	}
	return e.quantizePass(frame, ftype, mf, dctCache, baseQP, offsets, nil, &e.trial)
}

// countInterMB returns the exact entropy-coded length of one inter
// macroblock at qp from its cached DCT blocks and their magnitude bounds
// (Encoder.dctOr). The cache is QP-independent, so quantization is the only
// per-QP work — and a block whose bound sits under the quantizer's dead
// zone has no nonzero level at this QP: it costs its empty coded-block flag
// and its coefficients are never read.
func countInterMB(dctBlocks [][blockSize * blockSize]int32, or []uint32, qp int) int {
	n := 0
	for blk := range dctBlocks {
		if or[blk] < zeroBelow[qp] {
			n++
			continue
		}
		n += countBlock(&dctBlocks[blk], qp)
	}
	return n
}

// countBlock returns coeffsBits(quantizeBlockFixed(coef, qp)) without
// storing a level: one branch-free walk in zigzag order quantizes each
// magnitude, sums the levels' bit lengths and sets the significance mask,
// which is all blockBits needs.
func countBlock(coef *[blockSize * blockSize]int32, qp int) int {
	r := quantRecip[qp]
	var mask uint64
	lenSum := 0
	for k := range zigzag8 {
		c := coef[zigzag8[k]&63]
		s := c >> 31
		a := (c ^ s) - s
		l := uint32((int64(a)*r + 1<<(quantShift-1)) >> quantShift)
		lenSum += bits.Len32(l)
		// Shift the significance bit in from the top: after 64 steps the
		// bit of zigzag position k sits at bit k.
		mask = mask>>1 | uint64((l|-l)>>31)<<63
	}
	return blockBits(mask, lenSum)
}
