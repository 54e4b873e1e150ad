// Package codec implements a from-scratch H.264-style macroblock video
// codec: 16×16 macroblocks, I/P GoP structure, five block-matching motion
// estimation strategies (DIA, HEX, UMH, ESA, TESA), 8×8 DCT with H.264-style
// QP→Qstep quantization, zigzag run-level Exp-Golomb entropy coding,
// per-macroblock QP offset maps, and one-pass rate control.
//
// It substitutes for x264 in the DiVE reproduction: bit counts come from a
// real bitstream and reconstruction error from real quantization, so the
// accuracy/bitrate trade-offs the paper measures are driven by genuine
// codec behaviour. The motion vectors the encoder computes are exposed to
// the analytics layer — the "free" motion vectors DiVE builds on.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BitWriter accumulates a bitstream MSB-first. Bits are gathered in a
// 64-bit accumulator and spilled to the byte buffer eight at a time, so
// multi-bit symbols (the Exp-Golomb codes that dominate the bitstream) cost
// a couple of shifts instead of one call per bit. The produced bytes are
// identical to the historical bit-at-a-time writer.
type BitWriter struct {
	buf []byte
	// acc holds the nAcc most recently written bits in its low bits, oldest
	// bit highest. flushAcc keeps nAcc < 8 between Write calls, so any
	// n <= 56 fits in one accumulate step.
	acc  uint64
	nAcc int
}

// Reset truncates the writer to an empty stream, keeping the backing buffer
// so a recycled writer reaches a grow-once steady state.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nAcc = 0, 0
}

// flushAcc spills whole bytes from the accumulator, restoring nAcc < 8:
// the nAcc valid bits go out left-aligned as one 8-byte big-endian store
// (which shifts the stale bits above them away) and the buffer keeps the
// nAcc/8 whole bytes of it.
func (w *BitWriter) flushAcc() {
	n := len(w.buf)
	if n+8 > cap(w.buf) {
		w.buf = append(w.buf, make([]byte, 8)...)
	}
	buf := w.buf[:n+8]
	binary.BigEndian.PutUint64(buf[n:], w.acc<<uint(64-w.nAcc))
	w.buf = buf[:n+w.nAcc>>3]
	w.nAcc &= 7
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b int) {
	w.acc = w.acc<<1 | uint64(b&1)
	w.nAcc++
	if w.nAcc >= 8 {
		w.flushAcc()
	}
}

// WriteBits appends the low n bits of v, most significant first. n may be
// 0; n up to 64 is supported.
func (w *BitWriter) WriteBits(v uint64, n int) {
	if n <= 0 {
		return
	}
	if n > 56 {
		// Split off the high n-32 bits so each chunk fits the accumulator
		// headroom (nAcc < 8 after every call, so 56 more bits always fit).
		w.WriteBits(v>>32, n-32)
		n = 32
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	w.acc = w.acc<<uint(n) | v
	w.nAcc += n
	if w.nAcc >= 8 {
		w.flushAcc()
	}
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return len(w.buf)*8 + w.nAcc }

// Bytes flushes the writer (zero-padding the final partial byte) and
// returns the bitstream. The writer remains usable; further writes append
// after the padding, so call Bytes only once per stream. The returned slice
// aliases the writer's backing buffer: it stays valid until the writer is
// Reset and rewritten.
func (w *BitWriter) Bytes() []byte {
	if w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc<<uint(8-w.nAcc)))
		w.acc, w.nAcc = 0, 0
	}
	return w.buf
}

// ErrBitstream reports a malformed or truncated bitstream.
var ErrBitstream = errors.New("codec: malformed bitstream")

// BitReader consumes a bitstream produced by BitWriter. Multi-bit reads go
// through a 64-bit big-endian window loaded at the current byte (window):
// a whole Exp-Golomb symbol costs one load, one leading-zero count and one
// shift. The bit-at-a-time loops remain as the fallback for the last seven
// bytes of the buffer and for codes too long for the window, so every
// truncation and over-long-code rejection is the historical one.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader wraps buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// window returns the next bits left-aligned in a uint64 and how many of
// them are valid (57..64), or ok=false within 8 bytes of the end.
func (r *BitReader) window() (w uint64, valid int, ok bool) {
	i := r.pos >> 3
	if i+8 > len(r.buf) {
		return 0, 0, false
	}
	sh := r.pos & 7
	return binary.BigEndian.Uint64(r.buf[i:]) << uint(sh), 64 - sh, true
}

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (int, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, fmt.Errorf("%w: read past end at bit %d", ErrBitstream, r.pos)
	}
	b := r.buf[r.pos/8] >> uint(7-r.pos%8) & 1
	r.pos++
	return int(b), nil
}

// ReadBits returns the next n bits as an unsigned value.
func (r *BitReader) ReadBits(n int) (uint64, error) {
	if w, valid, ok := r.window(); ok && n > 0 && n <= valid {
		r.pos += n
		return w >> uint(64-n), nil
	}
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}
