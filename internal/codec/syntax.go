package codec

import "fmt"

// Bitstream syntax, stated once. A frame is a frameHeader, then one mbHeader
// per macroblock in raster order, each followed by its payload: nothing for
// a skip, four coded blocks (writeCoeffs) for an inter macroblock, four
// intraMode + coded block pairs for an intra one. quantizePass and the
// Decoder go through these elements and nothing else. Each has put, which
// returns its exact length in bits and writes it only when w is non-nil (a
// rate-control trial passes nil), and get, which reads it back with its
// range checks, every error wrapping ErrBitstream. Where a put sums symbols
// in one expression, Go evaluates its calls, and so writes, left to right.

// frameHeader opens every frame: ue(type) ue(baseQP) ue(mbw) ue(mbh), then
// the sub-pel and deblocking flags, one bit each.
type frameHeader struct {
	typ             FrameType
	baseQP          uint32
	mbw, mbh        uint32
	subpel, deblock bool
}

func (h frameHeader) put(w *BitWriter) int {
	n := putUE(w, uint32(h.typ)) + putUE(w, h.baseQP) + putUE(w, h.mbw) + putUE(w, h.mbh)
	if w != nil {
		var flags uint64
		if h.subpel {
			flags = 2
		}
		if h.deblock {
			flags |= 1
		}
		w.WriteBits(flags, 2)
	}
	return n + 2
}

func (h *frameHeader) get(r *BitReader) error {
	err := h.typ.get(r)
	h.baseQP, h.mbw, h.mbh = readUE(r, &err), readUE(r, &err), readUE(r, &err)
	if err != nil {
		return err
	}
	flags, err := r.ReadBits(2)
	h.subpel, h.deblock = flags&2 != 0, flags&1 != 0
	return err
}

// get reads the frame type: the header's first symbol, and all
// SniffFrameType reads.
func (t *FrameType) get(r *BitReader) error { return getSymbol(r, t, IFrame, PFrame, "frame type") }

// mbHeader opens every macroblock: ue(mode); for an inter macroblock
// se(dx) se(dy), its vector less predictMV's; for inter and intra se(dqp),
// its QP less the base QP. Deltas a mode does not code are zero.
type mbHeader struct {
	mode        MBMode
	dx, dy, dqp int32
}

func (h mbHeader) put(w *BitWriter) int {
	n := putUE(w, uint32(h.mode))
	if h.mode == ModeInter {
		n += putUE(w, seToUE(h.dx)) + putUE(w, seToUE(h.dy))
	}
	if h.mode != ModeSkip {
		n += putUE(w, seToUE(h.dqp))
	}
	return n
}

func (h *mbHeader) get(r *BitReader) error {
	*h = mbHeader{}
	err := getSymbol(r, &h.mode, ModeSkip, ModeIntra, "MB mode")
	if err == nil && h.mode == ModeInter {
		h.dx, h.dy = readSE(r, &err), readSE(r, &err)
	}
	if err == nil && h.mode != ModeSkip {
		h.dqp = readSE(r, &err)
	}
	return err
}

// intraMode is an intra block's prediction mode (intraModeDC …), ue(mode)
// in front of the block's coefficients.
type intraMode int

func (m intraMode) put(w *BitWriter) int { return putUE(w, uint32(m)) }

func (m *intraMode) get(r *BitReader) error { return getSymbol(r, m, 0, numIntraModes-1, "intra mode") }

// putUE writes ue(v) when w is non-nil and returns its length; se(v) is
// putUE(w, seToUE(v)). It inlines, so a trial's count makes no call.
func putUE(w *BitWriter, v uint32) int {
	if w != nil {
		w.WriteUE(v)
	}
	return ueBits(v)
}

// readUE reads ue(v) unless *err already holds an error, and leaves the
// read's own there: a get reads its symbols in one run and checks once.
// readSE is the se(v) counterpart.
func readUE(r *BitReader, err *error) uint32 {
	if *err != nil {
		return 0
	}
	v, e := r.ReadUE()
	*err = e
	return v
}

func readSE(r *BitReader, err *error) int32 { return ueToSE(readUE(r, err)) }

// getSymbol reads a ue(v) that must lie in [lo, hi] into *dst, which it
// leaves alone on an error.
func getSymbol[T ~int](r *BitReader, dst *T, lo, hi T, what string) error {
	v, err := r.ReadUE()
	if err == nil && (uint64(v) < uint64(lo) || uint64(v) > uint64(hi)) {
		err = fmt.Errorf("%w: bad %s %d", ErrBitstream, what, v)
	}
	if err == nil {
		*dst = T(v)
	}
	return err
}
