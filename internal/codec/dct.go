package codec

import "math/bits"

// blockSize is the transform block edge; a macroblock holds 2×2 transform
// blocks.
const blockSize = 8

// QStep converts a quantizer parameter (0..51) into a quantization step,
// following the H.264 convention of the step doubling every 6 QP. Served
// from a precomputed table (qstepTable in dct_fixed.go) — the skip
// threshold reads it per macroblock, so the old math.Pow was hot.
func QStep(qp int) float64 {
	return qstepTable[clampQP(qp)]
}

// zigzag8 is the classic 8×8 zigzag scan order.
var zigzag8 = func() [blockSize * blockSize]int {
	var order [blockSize * blockSize]int
	idx := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 {
			// Up-right diagonal.
			y := s
			if y > blockSize-1 {
				y = blockSize - 1
			}
			x := s - y
			for y >= 0 && x < blockSize {
				order[idx] = y*blockSize + x
				idx++
				y--
				x++
			}
		} else {
			x := s
			if x > blockSize-1 {
				x = blockSize - 1
			}
			y := s - x
			for x >= 0 && y < blockSize {
				order[idx] = y*blockSize + x
				idx++
				x--
				y++
			}
		}
	}
	return order
}()

// writeCoeffs entropy-codes one quantized block: a coded flag, then
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
func writeCoeffs(w *BitWriter, levels *[blockSize * blockSize]int32, nz int) {
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
		lev := uint64(seToUE(l)) + 1
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

// coeffsBits is the exact length writeCoeffs(levels, nz) appends, computed
// without a writer (phase one's arithmetic NumBits depends on it mirroring
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
	return blockBits(mask, lenSum)
}

// eobBits is the end-of-block marker's length (13).
var eobBits = ueBits(blockSize * blockSize)

// blockBits is the exact length writeCoeffs appends for a block given its
// significance mask (bit k set when the level at zigzag position k is
// nonzero) and lenSum, the summed bit lengths of its level magnitudes.
// Neither signs nor the levels themselves are needed:
//
//   - seBits(l) = 2·bitLen(|l|) + 1 whichever the sign, so the levels cost
//     2·lenSum + nz;
//   - ueBits(run) = 2·⌊log2(run+1)⌋ + 1, so the runs cost nz plus
//     2·⌊log2(g+1)⌋ for every zero run g ahead of a coefficient — zero-length
//     runs add nothing, and the loop below visits each zero run once by
//     shifting it, then the coefficients behind it, out of the mask.
func blockBits(mask uint64, lenSum int) int {
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

// readCoeffs decodes one block written by writeCoeffs and returns its
// nonzero-level count (every coded level is nonzero and lands on its own
// position, so the count is exact).
func readCoeffs(r *BitReader, levels *[blockSize * blockSize]int32) (nz int, err error) {
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
			return nz, nil // end of block
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
		idx++
		nz++
	}
}
