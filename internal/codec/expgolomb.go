package codec

import "math/bits"

// Exp-Golomb codes, the universal integer codes H.264 uses for syntax
// elements. ue codes non-negative integers; se maps signed integers onto ue
// with the standard zigzag (0, 1, -1, 2, -2, ...).

// WriteUE appends the unsigned Exp-Golomb code of v. The code is n-1 zeros
// followed by the n bits of v+1 (whose top bit is 1), which is exactly v+1
// written in a 2n-1 bit field — one WriteBits call.
func (w *BitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := bitLen64(x)
	w.WriteBits(x, 2*n-1)
}

// ReadUE reads an unsigned Exp-Golomb code: n zeros, then the n+1 bits of
// v+1. When all 2n+1 bits sit in the reader's window the symbol is the
// window's top 2n+1 bits; otherwise (buffer tail, n > 28) the bit loop runs.
func (r *BitReader) ReadUE() (uint32, error) {
	if w, valid, ok := r.window(); ok {
		if n := bits.LeadingZeros64(w); 2*n+1 <= valid {
			r.pos += 2*n + 1
			return uint32(w>>uint(63-2*n)) - 1, nil
		}
	}
	n := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, ErrBitstream
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return uint32(1<<uint(n) + rest - 1), nil
}

// ReadSE reads a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	return ueToSE(u), nil
}

// seToUE maps v > 0 to 2v−1 and v ≤ 0 to −2v without a branch: 2|v|, less
// one when v is positive. Its domain excludes MinInt32, which no symbol
// reaches (levels stay below 2^24, MV and QP deltas below 2^17).
func seToUE(v int32) uint32 {
	a := v >> 31
	return uint32(2*((v^a)-a)) - uint32(-v)>>31
}

// ueToSE is (u+1)/2 for odd u and −u/2 for even, picked by a parity mask.
func ueToSE(u uint32) int32 {
	a, b := int32(u+1)/2, -int32(u)/2
	m := -int32(u & 1)
	return b ^ (a^b)&m
}

func bitLen64(x uint64) int { return bits.Len64(x) }

// ueBits is the exact length WriteUE(v) appends (blockBits, the writeCoeffs
// mirror, lives in dct.go next to the writer). It calls bits.Len64 itself,
// so putUE stays within the inliner's budget.
func ueBits(v uint32) int { return 2*bits.Len64(uint64(v)+1) - 1 }
