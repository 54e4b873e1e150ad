package codec

import (
	"math"
	"math/bits"

	"dive/internal/imgx"
)

// Oracles: the kernels the decoder fast path, the counting rate-control
// trial, the block quantizer and the mask-walking entropy writer replaced,
// verbatim from the commit before
// each — the per-pixel clamped predictor (oracleMotionCompensate
// and the refSampleI loops), the scalar predictBlock (oraclePredictBlock),
// the per-pixel column-major deblocking filter,
// the IDCT that transforms every column, and the monolithic encodePass that
// strings them together. Production reconstructs through predictBlock /
// reconstructBlock / deblockFrame / idct8Fixed; the randomized tests in
// recon_test.go and the legacy-vs-two-phase tests hold those to these.

// passResult is the outcome of one trial encode at a fixed base QP.
type passResult struct {
	qp    int
	data  []byte
	nbits int
	bits  int
	recon *imgx.Plane
	qps   []int
}

// encodePass transforms, quantizes and entropy-codes the frame at the given
// base QP. Motion estimation results are shared across passes. When final
// is false the pass is a rate-control trial: it produces exact bit counts
// but skips inter-macroblock reconstruction and loop filtering (intra
// macroblocks still reconstruct, because intra prediction is causal in the
// reconstruction).
//
// Production never calls this: quantizePass is both the final pass and (via
// countPass) the trial. It survives as the single-pass, writer-driven
// reference implementation the equivalence tests compare against
// (legacyEncode), so the pooled paths stay pinned to it.
func (e *Encoder) encodePass(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, baseQP int, offsets []int, final bool) *passResult {
	w := &BitWriter{}
	// A P-frame trial pass never reconstructs (skip MBs compensate only
	// when final, inter MBs only quantize and count bits), so it needs no
	// reconstruction plane at all. Intra trial passes still do: intra
	// prediction reads reconstructed causal neighbors.
	var recon *imgx.Plane
	if final || ftype == IFrame {
		recon = imgx.NewPlane(e.cfg.Width, e.cfg.Height)
	}
	qps := make([]int, e.mbw*e.mbh)

	// Header.
	w.WriteUE(uint32(ftype))
	w.WriteUE(uint32(baseQP))
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

	codedMVs := make([]MV, e.mbw*e.mbh)
	for by := 0; by < e.mbh; by++ {
		for bx := 0; bx < e.mbw; bx++ {
			i := by*e.mbw + bx
			qp := baseQP
			if offsets != nil {
				qp = clampQP(baseQP + offsets[i])
			}
			qps[i] = qp
			px, py := bx*MBSize, by*MBSize

			if ftype == IFrame {
				w.WriteUE(uint32(ModeIntra))
				w.WriteUE(seToUE(int32(qp - baseQP)))
				encodeIntraMB(w, frame, recon, px, py, qp)
				continue
			}

			mode := mf.Modes[i]
			mv := mf.MVs[i]
			pred := predictMV(codedMVs, e.mbw, bx, by)
			if mode == ModeSkip && mv == pred {
				w.WriteUE(uint32(ModeSkip))
				codedMVs[i] = pred
				if final {
					oracleMotionCompensate(recon, e.ref, px, py, pred, e.cfg.SubPel)
				}
				continue
			}
			w.WriteUE(uint32(ModeInter))
			w.WriteUE(seToUE(int32(mv.X) - int32(pred.X)))
			w.WriteUE(seToUE(int32(mv.Y) - int32(pred.Y)))
			w.WriteUE(seToUE(int32(qp - baseQP)))
			codedMVs[i] = mv
			encodeInterMB(w, dctCache[i*4:i*4+4], e.ref, recon, px, py, mv, qp, e.cfg.SubPel, final)
		}
	}
	if final && e.cfg.Deblock {
		oracleDeblockFrame(recon, qps, e.mbw)
	}
	nbits := w.Len()
	data := w.Bytes()
	return &passResult{qp: baseQP, data: data, nbits: nbits, bits: nbits, recon: recon, qps: qps}
}

// oracleMotionCompensate copies the reference block displaced by mv into recon.
func oracleMotionCompensate(recon, ref *imgx.Plane, px, py int, mv MV, subpel bool) {
	if subpel {
		oracleCompensateHalf(recon, ref, px, py, mv)
		return
	}
	imgx.CopyBlock(recon, px, py, ref, px+int(mv.X), py+int(mv.Y), MBSize, MBSize)
}

// encodeInterMB quantizes and entropy-codes one inter macroblock from its
// cached fixed-point DCT blocks and, on the final pass, reconstructs it.
func encodeInterMB(w *BitWriter, dctBlocks [][blockSize * blockSize]int32, ref, recon *imgx.Plane, px, py int, mv MV, qp int, subpel, final bool) {
	var dct, res [blockSize * blockSize]int32
	var levels [blockSize * blockSize]int32
	blk := 0
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			nz := quantizeBlockFixed(&dctBlocks[blk], qp, &levels)
			blk++
			oracleWriteCoeffs(w, &levels, nz)
			if !final {
				continue
			}
			dequantizeBlockFixed(&levels, qp, &dct)
			oracleIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					cx, cy := px+bx+x, py+by+y
					v := refSampleI(ref, cx, cy, mv, subpel) + res[y*blockSize+x]
					recon.Set(cx, cy, clampPixI(v))
				}
			}
		}
	}
}

// encodeIntraMB codes one macroblock with per-block directional prediction
// from reconstructed neighbors. Intra blocks transform one at a time (never
// batched): prediction is causal in the reconstruction, so block k+1's
// input depends on block k's output.
func encodeIntraMB(w *BitWriter, cur, recon *imgx.Plane, px, py int, qp int) {
	var pred, res, dct [blockSize * blockSize]int32
	var levels [blockSize * blockSize]int32
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			mode := chooseIntraMode(cur, recon, px+bx, py+by)
			w.WriteUE(uint32(mode))
			oracleIntraPredict(recon, px+bx, py+by, mode, &pred)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					res[y*blockSize+x] = int32(cur.At(px+bx+x, py+by+y)) - pred[y*blockSize+x]
				}
			}
			fdct8Fixed(&res, &dct)
			nz := quantizeBlockFixed(&dct, qp, &levels)
			oracleWriteCoeffs(w, &levels, nz)
			dequantizeBlockFixed(&levels, qp, &dct)
			oracleIdct8(&dct, &res)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					recon.Set(px+bx+x, py+by+y, clampPixI(pred[y*blockSize+x]+res[y*blockSize+x]))
				}
			}
		}
	}
}

// oracleIntraPredict fills pred with the prediction for the 8×8 block at
// (px, py) under the given mode, reading reconstructed causal neighbors.
// Modes that lack their neighbor degrade to DC. Integer throughout — the DC
// mean rounds to nearest (the float reference kept the fraction; one of the
// documented output changes of the fixed-point switch).
func oracleIntraPredict(recon *imgx.Plane, px, py, mode int, pred *[blockSize * blockSize]int32) {
	switch {
	case mode == intraModeVertical && py > 0:
		for x := 0; x < blockSize; x++ {
			v := int32(recon.At(px+x, py-1))
			for y := 0; y < blockSize; y++ {
				pred[y*blockSize+x] = v
			}
		}
	case mode == intraModeHorizontal && px > 0:
		for y := 0; y < blockSize; y++ {
			v := int32(recon.At(px-1, py+y))
			for x := 0; x < blockSize; x++ {
				pred[y*blockSize+x] = v
			}
		}
	default:
		dc := intraDC(recon, px, py)
		for i := range pred {
			pred[i] = dc
		}
	}
}

// oracleCompensateHalf copies the half-pel displaced reference block into dst.
// (px, py) is the macroblock origin in pixels and mv a half-pel vector.
func oracleCompensateHalf(dst, ref *imgx.Plane, px, py int, mv MV) {
	hbx := px*2 + int(mv.X)
	hby := py*2 + int(mv.Y)
	for y := 0; y < MBSize; y++ {
		ty := py + y
		if ty < 0 || ty >= dst.H {
			continue
		}
		for x := 0; x < MBSize; x++ {
			tx := px + x
			if tx < 0 || tx >= dst.W {
				continue
			}
			dst.Pix[ty*dst.W+tx] = sampleHalf(ref, hbx+2*x, hby+2*y)
		}
	}
}

// oracleDeblockFrame filters all 8×8 transform-block boundaries of recon in
// place. qps holds the per-macroblock QP map; each edge uses the average QP
// of the two adjacent macroblocks.
func oracleDeblockFrame(recon *imgx.Plane, qps []int, mbw int) {
	w, h := recon.W, recon.H
	// Vertical edges (filtering horizontally across columns).
	for x := blockSize; x < w; x += blockSize {
		for y := 0; y < h; y++ {
			qp := oracleEdgeQP(qps, mbw, x, y, x-1, y)
			oracleFilterEdge(recon, x, y, 1, 0, qp)
		}
	}
	// Horizontal edges (filtering vertically across rows).
	for y := blockSize; y < h; y += blockSize {
		for x := 0; x < w; x++ {
			qp := oracleEdgeQP(qps, mbw, x, y, x, y-1)
			oracleFilterEdge(recon, x, y, 0, 1, qp)
		}
	}
}

// oracleEdgeQP returns the average QP of the macroblocks containing the two
// pixels adjacent to an edge.
func oracleEdgeQP(qps []int, mbw int, x0, y0, x1, y1 int) int {
	q0 := qps[(y0/MBSize)*mbw+x0/MBSize]
	q1 := qps[(y1/MBSize)*mbw+x1/MBSize]
	return (q0 + q1 + 1) / 2
}

// oracleFilterEdge conditionally smooths the four pixels straddling the edge at
// (x, y): p1 p0 | q0 q1 along direction (dx, dy), where q0 is at (x, y).
func oracleFilterEdge(recon *imgx.Plane, x, y, dx, dy, qp int) {
	alpha := deblockAlpha(qp)
	beta := deblockBeta(qp)
	q0 := int(recon.At(x, y))
	p0 := int(recon.At(x-dx, y-dy))
	diff := q0 - p0
	if diff < 0 {
		diff = -diff
	}
	if diff == 0 || diff >= alpha {
		return // flat already, or a real edge
	}
	p1 := int(recon.At(x-2*dx, y-2*dy))
	q1 := int(recon.At(x+dx, y+dy))
	if absInt(p1-p0) >= beta || absInt(q1-q0) >= beta {
		return // too much structure next to the edge
	}
	// 4-tap smoothing of the two boundary pixels (H.263-style strength).
	d := ((q0-p0)*3 + (p1 - q1)) / 8
	c := beta
	if d > c {
		d = c
	}
	if d < -c {
		d = -c
	}
	recon.Set(x-dx, y-dy, clampPix(float64(p0+d)))
	recon.Set(x, y, clampPix(float64(q0-d)))
}

// oracleIdct8 inverts fdct8Fixed: fixed-point coefficients in, integer
// residuals out.
func oracleIdct8(src, dst *[blockSize * blockSize]int32) {
	var tmp [blockSize * blockSize]int32
	for x := 0; x < blockSize; x++ {
		oracleIdctPass(src[:], tmp[:], 1, 1, x, blockSize, idctRnd1, idctShift1)
	}
	for y := 0; y < blockSize; y++ {
		oracleIdctPass(tmp[:], dst[:], 1, 1, y*blockSize, 1, idctRnd2, idctShift2)
	}
}

// oracleIdctPass is a strided inverse butterfly (fdctRowsT's, transposed,
// with int64 accumulators).
func oracleIdctPass(in, out []int32, stride, nb, base, step int, rnd int64, shift uint) {
	x0 := in[(base+0*step)*stride:][:nb]
	x1 := in[(base+1*step)*stride:][:nb]
	x2 := in[(base+2*step)*stride:][:nb]
	x3 := in[(base+3*step)*stride:][:nb]
	x4 := in[(base+4*step)*stride:][:nb]
	x5 := in[(base+5*step)*stride:][:nb]
	x6 := in[(base+6*step)*stride:][:nb]
	x7 := in[(base+7*step)*stride:][:nb]
	o0 := out[(base+0*step)*stride:][:nb]
	o1 := out[(base+1*step)*stride:][:nb]
	o2 := out[(base+2*step)*stride:][:nb]
	o3 := out[(base+3*step)*stride:][:nb]
	o4 := out[(base+4*step)*stride:][:nb]
	o5 := out[(base+5*step)*stride:][:nb]
	o6 := out[(base+6*step)*stride:][:nb]
	o7 := out[(base+7*step)*stride:][:nb]
	c1, c2, c3, c4 := int64(fixC1), int64(fixC2), int64(fixC3), int64(fixC4)
	c5, c6, c7 := int64(fixC5), int64(fixC6), int64(fixC7)
	for b := 0; b < nb; b++ {
		v0, v2, v4, v6 := int64(x0[b]), int64(x2[b]), int64(x4[b]), int64(x6[b])
		v1, v3, v5, v7 := int64(x1[b]), int64(x3[b]), int64(x5[b]), int64(x7[b])
		a0, a4 := c4*(v0+v4), c4*(v0-v4)
		t2, t6 := c2*v2+c6*v6, c6*v2-c2*v6
		e0, e1, e2, e3 := a0+t2, a4+t6, a4-t6, a0-t2
		q0 := c1*v1 + c3*v3 + c5*v5 + c7*v7
		q1 := c3*v1 - c7*v3 - c1*v5 - c5*v7
		q2 := c5*v1 - c1*v3 + c7*v5 + c3*v7
		q3 := c7*v1 - c5*v3 + c3*v5 - c1*v7
		o0[b] = int32((e0 + q0 + rnd) >> shift)
		o1[b] = int32((e1 + q1 + rnd) >> shift)
		o2[b] = int32((e2 + q2 + rnd) >> shift)
		o3[b] = int32((e3 + q3 + rnd) >> shift)
		o4[b] = int32((e3 - q3 + rnd) >> shift)
		o5[b] = int32((e2 - q2 + rnd) >> shift)
		o6[b] = int32((e1 - q1 + rnd) >> shift)
		o7[b] = int32((e0 - q0 + rnd) >> shift)
	}
}

// chooseIntraMode returns the mode with the smallest absolute prediction
// residual for the block at (px, py): the per-pixel chooser production ran
// before chooseIntra, scoring one clamped At() at a time through
// oracleIntraPredict.
func chooseIntraMode(cur, recon *imgx.Plane, px, py int) int {
	bestMode, bestSAD := intraModeDC, 1<<30
	var pred [blockSize * blockSize]int32
	for mode := 0; mode < numIntraModes; mode++ {
		oracleIntraPredict(recon, px, py, mode, &pred)
		sad := 0
		for y := 0; y < blockSize && sad < bestSAD; y++ {
			for x := 0; x < blockSize; x++ {
				d := int(cur.At(px+x, py+y)) - int(pred[y*blockSize+x])
				if d < 0 {
					d = -d
				}
				sad += d
			}
		}
		if sad < bestSAD {
			bestSAD = sad
			bestMode = mode
		}
	}
	return bestMode
}

// intraDC predicts a block's DC from the reconstructed pixels directly above
// and to the left, falling back to mid-gray at frame borders. Both encoder
// and decoder reconstruct in raster order, so the prediction is causal. The
// mean rounds to the nearest integer.
func intraDC(recon *imgx.Plane, px, py int) int32 {
	sum, n := 0, 0
	if py > 0 {
		for x := 0; x < blockSize; x++ {
			sum += int(recon.At(px+x, py-1))
			n++
		}
	}
	if px > 0 {
		for y := 0; y < blockSize; y++ {
			sum += int(recon.At(px-1, py+y))
			n++
		}
	}
	if n == 0 {
		return 128
	}
	return int32((sum + n/2) / n)
}

// The block quantizer and counters production ran before quantizeBlock,
// verbatim but for blockBits, which they call as oracleBlockBits (its
// trailing-zero loop): quantizeBlockFixed (the final pass's quantizer),
// coeffsBits (the final pass's counter over stored levels) and countBlock
// (the trial's zigzag-order quantize-and-count that stored nothing).

// quantizeBlockFixed quantizes fixed-point coefficients with the uniform
// deadzone quantizer via a reciprocal multiply (no division), and returns
// the number of nonzero levels so entropy coding can skip its emptiness
// pre-scan and stop after the last coefficient. The rounding convention
// matches the float reference: round half away from zero.
func quantizeBlockFixed(coef *[blockSize * blockSize]int32, qp int, levels *[blockSize * blockSize]int32) int {
	r := quantRecip[qp]
	nz := 0
	for i, c := range coef {
		s := c >> 31 // 0 or -1
		a := (c ^ s) - s
		l := int32((int64(a)*r + 1<<(quantShift-1)) >> quantShift)
		l = (l ^ s) - s
		levels[i] = l
		if l != 0 {
			nz++
		}
	}
	return nz
}

// coeffsBits is the exact length writeCoeffs(levels, nz) appends, computed
// without a writer (the rate-control trial's count depends on it mirroring
// the writer bit for bit). It reduces the block to the two quantities the
// length depends on and prices them through blockBits, like the
// rate-control trial's countBlock.
func coeffsBits(levels *[blockSize * blockSize]int32, nz int) int {
	if nz == 0 {
		return 1 // coded-block flag: empty
	}
	var mask uint64
	lenSum := 0
	for k := range zigzag8 {
		l := levels[zigzag8[k]&63]
		s := l >> 31
		a := uint32((l ^ s) - s)
		lenSum += bits.Len32(a)
		mask = mask>>1 | uint64((a|-a)>>31)<<63 // as in countBlock
	}
	return oracleBlockBits(mask, lenSum)
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
	return oracleBlockBits(mask, lenSum)
}

// oracleBlockBits is blockBits with the run term as a loop that visits each
// zero run once by shifting it, then the coefficients behind it, out of the
// mask.
func oracleBlockBits(mask uint64, lenSum int) int {
	if mask == 0 {
		return 1 // coded-block flag: empty
	}
	n := 1 + 2*bits.OnesCount64(mask) + 2*lenSum + eobBits
	for m := mask; m != 0; {
		g := bits.TrailingZeros64(m)
		n += 2 * (bits.Len(uint(g)+1) - 1)
		m >>= uint(g)
		m >>= uint(bits.TrailingZeros64(^m))
	}
	return n
}

// oracleCountInterMB is the rate-control trial's inter-macroblock counter
// before countBlock: quantize all 64 levels of each block, then walk them.
func oracleCountInterMB(dctBlocks [][blockSize * blockSize]int32, qp int) int {
	var levels [blockSize * blockSize]int32
	bits := 0
	for blk := 0; blk < 4; blk++ {
		nz := quantizeBlockFixed(&dctBlocks[blk], qp, &levels)
		bits += oracleCoeffsBits(&levels, nz)
	}
	return bits
}

// oracleCoeffsBits is the symbol-by-symbol mirror of writeCoeffs that
// coeffsBits was before blockBits: one ue(run) + se(level) length per
// coefficient, stopping at the last one.
func oracleCoeffsBits(levels *[blockSize * blockSize]int32, nz int) int {
	if nz == 0 {
		return 1 // coded-block flag: empty
	}
	bits := 1
	run := uint32(0)
	for _, pos := range zigzag8 {
		l := levels[pos]
		if l == 0 {
			run++
			continue
		}
		bits += ueBits(run) + ueBits(seToUE(l))
		run = 0
		if nz--; nz == 0 {
			break
		}
	}
	return bits + ueBits(blockSize*blockSize)
}

// The entropy writer and the Exp-Golomb sign maps before writeCoeffs walked
// the zigzag significance mask and the maps went branch-free, verbatim but
// for their names: oracleWriteCoeffs (a zigzag walk that tests every level
// for zero and stops at the nz-th coefficient), oracleSeToUE and
// oracleUeToSE (a branch on the sign and on the parity).

// oracleWriteCoeffs entropy-codes one quantized block: a coded flag, then
// (run, level) pairs in zigzag order with an end-of-block marker. nz is the
// block's nonzero-level count, tracked by the quantizers, so the zigzag walk
// stops at the last nonzero coefficient.
//
// Symbols are gathered in a local field and handed to the writer as few
// times as its 56-bit WriteBits allows — one (run, level) pair at least, a
// whole sparse block at best. An Exp-Golomb code is its value plus one
// written in 2n−1 bits, n the bit length of that, so appending a code to the
// field is a shift and an or; the bits are those of one WriteUE/WriteSE per
// symbol.
func oracleWriteCoeffs(w *BitWriter, levels *[blockSize * blockSize]int32, nz int) {
	if nz == 0 {
		w.WriteBit(0) // coded-block flag: empty
		return
	}
	field, n := uint64(1), 1 // coded-block flag: coded
	run := uint64(1)         // the zero run so far, plus one
	for _, pos := range zigzag8 {
		l := levels[pos]
		if l == 0 {
			run++
			continue
		}
		lev := uint64(oracleSeToUE(l)) + 1
		nRun, nLev := 2*bits.Len64(run)-1, 2*bits.Len64(lev)-1
		if n+nRun+nLev > 56 {
			w.WriteBits(field, n)
			field, n = 0, 0
		}
		if nRun+nLev > 56 {
			// A level too long to share a field with its run.
			w.WriteBits(run, nRun)
			w.WriteBits(lev, nLev)
		} else {
			field = (field<<uint(nRun)|run)<<uint(nLev) | lev
			n += nRun + nLev
		}
		run = 1
		if nz--; nz == 0 {
			break
		}
	}
	// End of block: an out-of-range run signals no more coefficients.
	if n+eobBits > 56 {
		w.WriteBits(field, n)
		field, n = 0, 0
	}
	w.WriteBits(field<<uint(eobBits)|(blockSize*blockSize+1), n+eobBits)
}

func oracleSeToUE(v int32) uint32 {
	if v > 0 {
		return uint32(2*v - 1)
	}
	return uint32(-2 * v)
}

func oracleUeToSE(u uint32) int32 {
	if u%2 == 1 {
		return int32(u+1) / 2
	}
	return -int32(u) / 2
}

// oracleReadCoeffs is the coefficient reader before it kept its bit window in
// locals: one ReadUE for each run and one ReadSE for each level.
func oracleReadCoeffs(r *BitReader, levels *[blockSize * blockSize]int32) (mask uint64, err error) {
	*levels = [blockSize * blockSize]int32{}
	coded, err := r.ReadBit()
	if err != nil || coded == 0 {
		return 0, err
	}
	idx := 0
	for {
		run, err := r.ReadUE()
		if err != nil {
			return 0, err
		}
		if run >= blockSize*blockSize {
			return mask, nil // end of block
		}
		idx += int(run)
		if idx >= blockSize*blockSize {
			return 0, ErrBitstream
		}
		l, err := r.ReadSE()
		if err != nil {
			return 0, err
		}
		if l == 0 {
			return 0, ErrBitstream
		}
		levels[zigzag8[idx]] = l
		mask |= 1 << uint(idx)
		idx++
	}
}

// The motion-search and rate-control oracles below are the bodies production
// ran before the word-wide half-pel SAD, the priced-point search and the
// warm-started rate control, verbatim but for their names (and the rate
// controller's trial, now a parameter): oracleSadHalf
// (per-pixel interior loop), oracleSearcher / oracleSearchMB (every
// candidate priced in full against bestCost, re-priced when revisited) and
// oracleBisectQP (plain bisection over [minQP, 51]).

// oracleSadHalf computes the SAD between the w×h block at (ax, ay) in a and the
// half-pel displaced block at half-pel origin (hbx, hby) in b, with early
// exit (checked after each completed row, matching imgx.SAD).
func oracleSadHalf(a *imgx.Plane, ax, ay int, b *imgx.Plane, hbx, hby, w, h, earlyExit int) int {
	// Fast path: even coordinates are plain integer SAD.
	if hbx&1 == 0 && hby&1 == 0 {
		return imgx.SAD(a, ax, ay, b, hbx>>1, hby>>1, w, h, earlyExit)
	}
	ix0, iy0 := hbx>>1, hby>>1
	// Interior fast path: when every integer sample the bilinear taps touch
	// (columns ix0..ix0+w, rows iy0..iy0+h — conservatively including the +1
	// tap even on the even axis) is inside b, interpolation reads row slices
	// directly instead of going through the clamping sampleHalf, with the
	// identical rounding arithmetic and branchless absolute values.
	if ix0 >= 0 && iy0 >= 0 && ix0+w < b.W && iy0+h < b.H {
		oddX, oddY := hbx&1 == 1, hby&1 == 1
		sum := 0
		for y := 0; y < h; y++ {
			ra := a.Pix[(ay+y)*a.W+ax : (ay+y)*a.W+ax+w]
			iy := iy0 + y
			r0 := b.Pix[iy*b.W+ix0 : iy*b.W+ix0+w+1]
			switch {
			case oddX && !oddY:
				for x := 0; x < w; x++ {
					d := int(ra[x]) - (int(r0[x])+int(r0[x+1])+1)/2
					m := d >> 63
					sum += (d + m) ^ m
				}
			case !oddX && oddY:
				r1 := b.Pix[(iy+1)*b.W+ix0 : (iy+1)*b.W+ix0+w+1]
				for x := 0; x < w; x++ {
					d := int(ra[x]) - (int(r0[x])+int(r1[x])+1)/2
					m := d >> 63
					sum += (d + m) ^ m
				}
			default: // odd in both axes
				r1 := b.Pix[(iy+1)*b.W+ix0 : (iy+1)*b.W+ix0+w+1]
				for x := 0; x < w; x++ {
					d := int(ra[x]) - (int(r0[x])+int(r0[x+1])+int(r1[x])+int(r1[x+1])+2)/4
					m := d >> 63
					sum += (d + m) ^ m
				}
			}
			if sum >= earlyExit {
				return sum
			}
		}
		return sum
	}
	sum := 0
	for y := 0; y < h; y++ {
		ra := a.Pix[(ay+y)*a.W+ax : (ay+y)*a.W+ax+w]
		for x := 0; x < w; x++ {
			d := int(ra[x]) - int(sampleHalf(b, hbx+2*x, hby+2*y))
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum >= earlyExit {
			return sum
		}
	}
	return sum
}

// oracleSearcher bundles the state one motion search needs.
type oracleSearcher struct {
	cur, ref  *imgx.Plane
	mbx, mby  int // top-left pixel of the macroblock
	rangePx   int
	bestMV    MV
	bestCost  int
	lambdaMV  int // bit-cost weight for MV magnitude (rate term)
	predictor MV
}

// cost evaluates candidate (dx, dy): SAD plus a small rate term that
// penalizes deviation from the predictor, the standard regularization that
// keeps MV fields smooth in production encoders. The search window is
// centered on the predictor (as in x264), so coherent large motion can be
// tracked through predictor chaining even beyond the window radius.
func (s *oracleSearcher) cost(dx, dy int) int {
	if absInt(dx-int(s.predictor.X)) > s.rangePx || absInt(dy-int(s.predictor.Y)) > s.rangePx {
		return math.MaxInt32
	}
	sad := imgx.SAD(s.cur, s.mbx, s.mby, s.ref, s.mbx+dx, s.mby+dy, MBSize, MBSize, s.bestCost)
	rate := s.lambdaMV * (absInt(dx-int(s.predictor.X)) + absInt(dy-int(s.predictor.Y)))
	return sad + rate
}

// try updates the incumbent if candidate (dx, dy) is cheaper.
func (s *oracleSearcher) try(dx, dy int) {
	c := s.cost(dx, dy)
	if c < s.bestCost {
		s.bestCost = c
		s.bestMV = MV{int16(dx), int16(dy)}
	}
}

// searchDia runs an iterative small-diamond descent from the predictor.
func (s *oracleSearcher) searchDia() {
	cx, cy := int(s.bestMV.X), int(s.bestMV.Y)
	for iter := 0; iter < 2*s.rangePx; iter++ {
		improved := false
		for _, d := range smallDiamond {
			before := s.bestCost
			s.try(cx+d[0], cy+d[1])
			if s.bestCost < before {
				improved = true
			}
		}
		nx, ny := int(s.bestMV.X), int(s.bestMV.Y)
		if !improved || (nx == cx && ny == cy) {
			return
		}
		cx, cy = nx, ny
	}
}

// searchHex runs hexagon descent followed by small-diamond refinement.
func (s *oracleSearcher) searchHex() {
	cx, cy := int(s.bestMV.X), int(s.bestMV.Y)
	for iter := 0; iter < s.rangePx; iter++ {
		for _, d := range hexPattern {
			s.try(cx+d[0], cy+d[1])
		}
		nx, ny := int(s.bestMV.X), int(s.bestMV.Y)
		if nx == cx && ny == cy {
			break
		}
		cx, cy = nx, ny
	}
	cx, cy = int(s.bestMV.X), int(s.bestMV.Y)
	for _, d := range smallDiamond {
		s.try(cx+d[0], cy+d[1])
	}
}

// searchUmh runs a simplified uneven multi-hexagon search: an uneven cross,
// expanding multi-hexagon rings, then hexagon refinement.
func (s *oracleSearcher) searchUmh() {
	cx, cy := int(s.bestMV.X), int(s.bestMV.Y)
	// Uneven cross: horizontal reach is twice the vertical (motion in
	// driving video is predominantly horizontal).
	for d := 1; d <= s.rangePx; d += 2 {
		s.try(cx+d, cy)
		s.try(cx-d, cy)
		if d <= s.rangePx/2 {
			s.try(cx, cy+d)
			s.try(cx, cy-d)
		}
	}
	// Multi-hexagon rings around the incumbent.
	cx, cy = int(s.bestMV.X), int(s.bestMV.Y)
	for r := 1; r <= s.rangePx/2; r *= 2 {
		for _, d := range hexPattern {
			s.try(cx+d[0]*r, cy+d[1]*r)
		}
	}
	s.searchHex()
}

// searchEsa scans every offset in the predictor-centered window; the
// window-global SAD-optimal match.
func (s *oracleSearcher) searchEsa() {
	px, py := int(s.predictor.X), int(s.predictor.Y)
	for dy := py - s.rangePx; dy <= py+s.rangePx; dy++ {
		for dx := px - s.rangePx; dx <= px+s.rangePx; dx++ {
			s.try(dx, dy)
		}
	}
}

// searchTesa scans exhaustively with SAD, keeps the best candidates, and
// re-ranks them with a Hadamard-transformed (SATD) cost, as x264's tesa
// does. It is the most expensive method.
func (s *oracleSearcher) searchTesa() {
	type cand struct {
		dx, dy, sad int
	}
	const keep = 12
	cands := make([]cand, 0, keep+1)
	worst := math.MaxInt32
	px, py := int(s.predictor.X), int(s.predictor.Y)
	for dy := py - s.rangePx; dy <= py+s.rangePx; dy++ {
		for dx := px - s.rangePx; dx <= px+s.rangePx; dx++ {
			sad := imgx.SAD(s.cur, s.mbx, s.mby, s.ref, s.mbx+dx, s.mby+dy, MBSize, MBSize, worst)
			if len(cands) < keep || sad < worst {
				cands = append(cands, cand{dx, dy, sad})
				// Keep the candidate list small and worst up to date.
				if len(cands) > keep {
					wi, wv := 0, -1
					for i, c := range cands {
						if c.sad > wv {
							wi, wv = i, c.sad
						}
					}
					cands[wi] = cands[len(cands)-1]
					cands = cands[:len(cands)-1]
				}
				worst = 0
				for _, c := range cands {
					if c.sad > worst {
						worst = c.sad
					}
				}
			}
		}
	}
	bestCost := math.MaxInt32
	for _, c := range cands {
		satd := (&searcher{cur: s.cur, ref: s.ref, mbx: s.mbx, mby: s.mby}).satd(c.dx, c.dy)
		cost := satd + s.lambdaMV*(absInt(c.dx-int(s.predictor.X))+absInt(c.dy-int(s.predictor.Y)))
		if cost < bestCost {
			bestCost = cost
			s.bestMV = MV{int16(c.dx), int16(c.dy)}
		}
	}
	s.bestCost = bestCost
}

// oracleSearchMB finds the motion vector for the macroblock whose top-left pixel
// is (mbx, mby), starting from predictor pred.
func oracleSearchMB(cur, ref *imgx.Plane, mbx, mby int, pred MV, method MEMethod, rangePx int) (MV, int) {
	s := &oracleSearcher{
		cur: cur, ref: ref, mbx: mbx, mby: mby,
		rangePx: rangePx, bestCost: math.MaxInt32,
		lambdaMV: 4, predictor: pred,
	}
	switch method {
	case MEEsa, METesa:
		// Exhaustive variants are purely residual-driven: they visit the
		// whole window, so the predictor only positions the window and
		// contributes no rate bias. This is what makes them best for
		// compression yet noisier for analytics — the window-global
		// residual minimum need not be the true object motion.
		s.lambdaMV = 0
		s.bestMV = MV{}
		s.bestCost = s.cost(0, 0)
		if method == MEEsa {
			s.searchEsa()
		} else {
			s.searchTesa()
		}
	default:
		// Start from the predictor and the zero vector.
		s.bestMV = MV{}
		s.bestCost = s.cost(0, 0)
		s.try(int(pred.X), int(pred.Y))
		// Noise-adaptive rate penalty: when even the best starting
		// candidate has high SAD (noisy or flat content), random offsets
		// can beat it by chance alone, so demand proportionally more
		// improvement per pixel of displacement. This is what keeps
		// x264's vectors at zero on low-light footage — the effect the
		// paper leans on when excluding night clips.
		if adaptive := s.bestCost >> 5; adaptive > s.lambdaMV {
			s.lambdaMV = adaptive
		}
		switch method {
		case MEDia:
			s.searchDia()
		case MEUmh:
			s.searchUmh()
		default:
			s.searchHex()
		}
	}
	return s.bestMV, s.bestCost
}

// oracleBisectQP is the rate controller before the warm start: bisect the
// base QP over trial passes, every probe a trial (a countPass in production,
// any curve in FuzzSearchBaseQP). It returns the chosen QP and the QPs it
// probed, in order.
func oracleBisectQP(minQP, target int, trial func(q int) int) (qp int, probed []int) {
	lo, hi := minQP, 51
	for lo < hi {
		mid := (lo + hi) / 2
		bits := trial(mid)
		probed = append(probed, mid)
		if bits <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, probed
}

// oraclePredictBlock is the scalar predictor the word-wide predictBlock
// replaced, verbatim but for its name, with the clamped per-sample readers
// refSampleI and sampleHalf below it: the specification predictBlock is held
// to. It writes the w×h motion-compensated prediction of the block whose
// top-left pixel is (x0, y0) into dst (stride bytes per row). mv is
// in half-pel units when subpel is set. When every reference sample the
// block touches lies inside ref — always, for vectors the encoder's search
// produces away from the border — rows are copied or averaged straight from
// Pix, specialised on which axes sit on a half position; otherwise (border
// blocks, or an out-of-frame vector in a hostile stream) each sample goes
// through the clamping refSampleI. Both paths round identically.
func oraclePredictBlock(dst []uint8, stride int, ref *imgx.Plane, x0, y0, w, h int, mv MV, subpel bool) {
	ix, iy := x0+int(mv.X), y0+int(mv.Y)
	oddX, oddY := false, false
	if subpel {
		hx, hy := 2*x0+int(mv.X), 2*y0+int(mv.Y)
		ix, iy = hx>>1, hy>>1
		oddX, oddY = hx&1 == 1, hy&1 == 1
	}
	// xe, ye: one past the last integer sample touched (the bilinear taps
	// reach one further on an odd axis).
	xe, ye := ix+w, iy+h
	if oddX {
		xe++
	}
	if oddY {
		ye++
	}
	if ix < 0 || iy < 0 || xe > ref.W || ye > ref.H {
		for y := 0; y < h; y++ {
			row := dst[y*stride : y*stride+w]
			for x := range row {
				row[x] = uint8(refSampleI(ref, x0+x, y0+y, mv, subpel))
			}
		}
		return
	}
	for y := 0; y < h; y++ {
		row := dst[y*stride : y*stride+w]
		r0 := ref.Pix[(iy+y)*ref.W+ix : (iy+y)*ref.W+xe]
		switch {
		case !oddX && !oddY:
			copy(row, r0)
		case oddX && !oddY:
			for x := range row {
				row[x] = uint8((int(r0[x]) + int(r0[x+1]) + 1) / 2)
			}
		case !oddX && oddY:
			r1 := ref.Pix[(iy+y+1)*ref.W+ix : (iy+y+1)*ref.W+xe]
			for x := range row {
				row[x] = uint8((int(r0[x]) + int(r1[x]) + 1) / 2)
			}
		default:
			r1 := ref.Pix[(iy+y+1)*ref.W+ix : (iy+y+1)*ref.W+xe]
			for x := range row {
				row[x] = uint8((int(r0[x]) + int(r0[x+1]) + int(r1[x]) + int(r1[x+1]) + 2) / 4)
			}
		}
	}
}

// refSampleI reads the reference pixel at (cx, cy) displaced by mv, which
// is in half-pel units when subpel is set. Integer throughout: sampleHalf
// rounds its bilinear taps internally.
func refSampleI(ref *imgx.Plane, cx, cy int, mv MV, subpel bool) int32 {
	if subpel {
		return int32(sampleHalf(ref, cx*2+int(mv.X), cy*2+int(mv.Y)))
	}
	return int32(ref.At(cx+int(mv.X), cy+int(mv.Y)))
}

// sampleHalf reads the reference plane at half-pel position (hx, hy), i.e.
// pixel position (hx/2, hy/2), with bilinear interpolation for odd
// coordinates and border clamping.
func sampleHalf(p *imgx.Plane, hx, hy int) uint8 {
	ix, iy := hx>>1, hy>>1
	oddX, oddY := hx&1 == 1, hy&1 == 1
	switch {
	case !oddX && !oddY:
		return p.At(ix, iy)
	case oddX && !oddY:
		return uint8((int(p.At(ix, iy)) + int(p.At(ix+1, iy)) + 1) / 2)
	case !oddX && oddY:
		return uint8((int(p.At(ix, iy)) + int(p.At(ix, iy+1)) + 1) / 2)
	default:
		return uint8((int(p.At(ix, iy)) + int(p.At(ix+1, iy)) +
			int(p.At(ix, iy+1)) + int(p.At(ix+1, iy+1)) + 2) / 4)
	}
}
