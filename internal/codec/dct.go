package codec

import (
	"encoding/binary"
	"math/bits"
)

// blockSize is the transform block edge; a macroblock holds 2×2 transform
// blocks.
const blockSize = 8

// zigzag8 is the classic 8×8 zigzag scan order: raster positions along
// the anti-diagonals, alternately up-right and down-left, from DC.
var zigzag8 = [blockSize * blockSize]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// writeCoeffs entropy-codes one quantized block: a coded flag, then
// (run, level) pairs in zigzag order with an end-of-block marker. mask is
// the block's zigzag significance mask from codeBlock (bit k set when the
// level at zigzag position k is nonzero): the walk visits its set bits only,
// so each run is the gap between two of them and no zero level is loaded.
//
// Symbols are gathered in a local field and handed to the writer as few
// times as its 56-bit WriteBits allows — one (run, level) pair at least, a
// whole sparse block at best. An Exp-Golomb code is its value plus one
// written in 2n−1 bits, n the bit length of that, so appending a code to the
// field is a shift and an or; the bits are those of one ue / se code per
// symbol.
func writeCoeffs(w *BitWriter, levels *[blockSize * blockSize]int32, mask uint64) {
	if mask == 0 {
		w.WriteBit(0) // coded-block flag: empty
		return
	}
	field, n := uint64(1), 1 // coded-block flag: coded
	next := 0                // the zigzag position after the previous coefficient
	for ; mask != 0; mask &= mask - 1 {
		k := bits.TrailingZeros64(mask)
		run := uint64(k-next) + 1 // the zero run, plus one
		next = k + 1
		lev := uint64(seToUE(levels[zigzag8[k&63]&63])) + 1
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
	}
	// End of block: an out-of-range run signals no more coefficients.
	if n+eobBits > 56 {
		w.WriteBits(field, n)
		field, n = 0, 0
	}
	w.WriteBits(field<<uint(eobBits)|(blockSize*blockSize+1), n+eobBits)
}

// codeBlock quantizes one block into levels and returns its zigzag
// significance mask and the exact length writeCoeffs(levels, mask) will
// append (a rate-control trial's count, and the final pass's check of the
// writer against its own count, depend on that mirroring the writer bit for
// bit). Every block the encoder quantizes — final pass and
// rate-control trial, inter and intra — goes through here.
func codeBlock(coef *[blockSize * blockSize]int32, qp int, levels *[blockSize * blockSize]int32) (mask uint64, n int) {
	sig, lenSum := quantizeBlock(coef, qp, levels)
	mask = zigzagMask(sig)
	return mask, blockBits(mask, lenSum)
}

// zigzagBits[b][v] is the zigzag significance mask of a raster mask whose
// byte b is v and whose other bytes are zero: it sets bit k for each raster
// position 8b+i (bit i of v) that zigzag8 visits k-th.
var zigzagBits = func() (t [8][256]uint64) {
	var pos [blockSize * blockSize]uint
	for k, r := range zigzag8 {
		pos[r] = uint(k)
	}
	for b := range t {
		for v := range t[b] {
			for i := 0; i < 8; i++ {
				if v>>i&1 == 1 {
					t[b][v] |= 1 << pos[8*b+i]
				}
			}
		}
	}
	return t
}()

// zigzagMask turns a raster significance mask (bit i: the level at raster
// position i is nonzero) into the zigzag one blockBits prices, a byte at a
// time.
func zigzagMask(sig uint64) uint64 {
	return zigzagBits[0][uint8(sig)] | zigzagBits[1][uint8(sig>>8)] |
		zigzagBits[2][uint8(sig>>16)] | zigzagBits[3][uint8(sig>>24)] |
		zigzagBits[4][uint8(sig>>32)] | zigzagBits[5][uint8(sig>>40)] |
		zigzagBits[6][uint8(sig>>48)] | zigzagBits[7][uint8(sig>>56)]
}

// eobBits is the end-of-block marker's length (13).
var eobBits = ueBits(blockSize * blockSize)

// blockBits is the exact length writeCoeffs appends for a block given its
// significance mask (bit k set when the level at zigzag position k is
// nonzero) and lenSum, the summed bit lengths of its level magnitudes.
// Neither signs nor the levels themselves are needed:
//
//   - seBits(l) = 2·bitLen(|l|) + 1 whichever the sign, so the levels cost
//     2·lenSum + nz, nz the mask's popcount;
//   - ueBits(run) = 2·⌊log2(run+1)⌋ + 1, so the runs cost nz plus
//     2·⌊log2(g+1)⌋ for every zero run g ahead of a coefficient. That term is
//     2·#{j ≥ 1 : g ≥ 2^j − 1}, so it is twice the number of runs at least 1,
//     3, 7, 15, 31 and 63 long, each counted as a popcount of run starts —
//     no branch on the data, however many runs the block has.
func blockBits(mask uint64, lenSum int) int {
	if mask == 0 {
		return 1 // coded-block flag: empty
	}
	n := 1 + 2*bits.OnesCount64(mask) + 2*lenSum + eobBits
	// The zero levels ahead of the last coefficient: each maximal run of
	// ones here is a coded run, ended by the coefficient above it.
	z := ^mask & (1<<uint(63-bits.LeadingZeros64(mask)) - 1)
	// yL has bit i set when the L positions from i on all hold zero levels,
	// so its run starts (a set bit above a clear one) count the runs ≥ L
	// long. y(2L+1) is y(L+1) = yL & yL>>1 at i and at i+L.
	y1 := z
	t := y1 & (y1 >> 1)
	y3 := t & (t >> 1)
	t = y3 & (y3 >> 1)
	y7 := t & (t >> 3)
	t = y7 & (y7 >> 1)
	y15 := t & (t >> 7)
	t = y15 & (y15 >> 1)
	y31 := t & (t >> 15)
	t = y31 & (y31 >> 1)
	y63 := t & (t >> 31)
	return n + 2*(bits.OnesCount64(y1&^(y1<<1))+bits.OnesCount64(y3&^(y3<<1))+
		bits.OnesCount64(y7&^(y7<<1))+bits.OnesCount64(y15&^(y15<<1))+
		bits.OnesCount64(y31&^(y31<<1))+bits.OnesCount64(y63&^(y63<<1)))
}

// pairPeek is the width of the window prefix pairTable is indexed by.
const pairPeek = 12

// pairTable[p] decodes the head of a window whose top pairPeek bits are p
// when a (run, level) pair lies whole in those bits with a nonzero level,
// and a second such pair too when it fits behind the first:
//
//	bits  0–3   the length of what the entry decodes (2–12)
//	bits  4–9   the first run
//	bits 10–15  the second run plus one — the step from the first level's
//	            zigzag position to the second's — or 0 for one pair
//	bits 20–25  the first level, signed
//	bits 26–31  the second level, signed; the first again for one pair
//
// so one pair stores its level twice at one position. Every other prefix —
// a longer pair, the 13-bit end-of-block marker, a zero level — is 0, and
// readCoeffs decodes it code by code. A nonzero level's code is at least 3
// bits, so within pairPeek bits a run is at most 30 and a level's magnitude
// at most 31: both fit their 6-bit fields. The codes are read with the
// arithmetic readCoeffs uses.
var pairTable = func() (t [1 << pairPeek]uint32) {
	// pair decodes the pair at the head of w if it lies within w's top
	// avail bits; l == 0 when it does not.
	pair := func(w uint64, avail int) (run uint64, l int32, n int) {
		z := bits.LeadingZeros64(w)
		nRun := 2*z + 1
		if nRun >= avail {
			return 0, 0, 0
		}
		run = w>>uint(63-2*z) - 1
		v := w << uint(nRun)
		m := bits.LeadingZeros64(v)
		nLev := 2*m + 1
		if nRun+nLev > avail {
			return 0, 0, 0
		}
		return run, ueToSE(uint32(v>>uint(63-2*m)) - 1), nRun + nLev
	}
	for p := range t {
		w := uint64(p) << (64 - pairPeek)
		run, l, n := pair(w, pairPeek)
		if l == 0 {
			continue
		}
		run2, l2, n2 := pair(w<<uint(n), pairPeek-n)
		step := run2 + 1
		if l2 == 0 {
			l2, step, n2 = l, 0, 0
		}
		t[p] = uint32(l2)<<26 | uint32(l&63)<<20 | uint32(step)<<10 | uint32(run)<<4 | uint32(n+n2)
	}
	return t
}()

// readCoeffs decodes one block written by writeCoeffs and returns its zigzag
// significance mask (every coded level is nonzero and lands on its own
// position, so the mask is exact).
//
// The bits are read from a 64-bit window held in locals for the whole
// block. While at least pairPeek bits remain, a prefix pairTable decodes —
// one short pair or two — costs one lookup and one shift. Any other pair is
// a leading-zero count and a shift for each symbol, taken once the window
// holds at least 40 bits (it is reloaded from the buffer when it holds
// fewer); valid counts at most 63 of them, so a pair the window holds is at
// most 63 bits long. A pair is taken only when both its codes lie whole in
// the window; otherwise — the last seven bytes of the buffer, or a code too
// long for what is left — the ReadUE / ReadSE loop below takes over at the
// start of that pair, so every rejection (read past the end, a code over 32
// zeros long, a run past the block, a zero level) is the bit reader's.
func readCoeffs(r *BitReader, levels *[blockSize * blockSize]int32) (mask uint64, err error) {
	*levels = [blockSize * blockSize]int32{}
	idx := 0
	if buf, pos := r.buf, r.pos; pos>>3+8 <= len(buf) {
		sh := pos & 7
		w := binary.BigEndian.Uint64(buf[pos>>3:]) << uint(sh)
		if w>>63 == 0 {
			r.pos = pos + 1 // coded-block flag: empty
			return 0, nil
		}
		w, pos = w<<1, pos+1
		valid := 63 - sh
		for {
			for valid >= pairPeek {
				e := pairTable[w>>(64-pairPeek)]
				k := idx + int(e>>4&63)
				k2 := k + int(e>>10&63)
				if e == 0 || k2 >= blockSize*blockSize {
					break // decoded code by code, which rejects a run past the block
				}
				levels[zigzag8[k&63]&63] = int32(e<<6) >> 26
				levels[zigzag8[k2&63]&63] = int32(e) >> 26
				mask |= 1<<(k&63) | 1<<(k2&63)
				idx = k2 + 1
				n := int(e & 15)
				w, valid, pos = w<<(n&63), valid-n, pos+n
			}
			if valid < 40 {
				i := pos >> 3
				if i+8 > len(buf) {
					break
				}
				w, valid = binary.BigEndian.Uint64(buf[i:])<<uint(pos&7), 63-pos&7
				continue
			}
			n := bits.LeadingZeros64(w)
			nRun := 2*n + 1
			if nRun > valid {
				break
			}
			run := w>>((63-2*n)&63) - 1
			if run >= blockSize*blockSize {
				r.pos = pos + nRun
				return mask, nil // end of block
			}
			k := idx + int(run)
			if k >= blockSize*blockSize {
				r.pos = pos + nRun
				return 0, ErrBitstream
			}
			v := w << (nRun & 63)
			m := bits.LeadingZeros64(v)
			nLev := 2*m + 1
			if nRun+nLev > valid {
				break
			}
			// ueToSE of the level's code: half of the code plus one, negated
			// when that is odd. The pair is at most 63 bits, so m ≤ 30 and the
			// code plus one is below 2^31, where ueToSE does not wrap.
			x := v >> ((63 - 2*m) & 63)
			sign := -int32(x & 1)
			l := (int32(x>>1) ^ sign) - sign
			if l == 0 {
				r.pos = pos + nRun + nLev
				return 0, ErrBitstream
			}
			levels[zigzag8[k&63]&63] = l
			mask |= 1 << (k & 63)
			idx = k + 1
			w, valid, pos = v<<(nLev&63), valid-nRun-nLev, pos+nRun+nLev
		}
		r.pos = pos
	} else if coded, err := r.ReadBit(); err != nil || coded == 0 {
		return 0, err
	}
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
