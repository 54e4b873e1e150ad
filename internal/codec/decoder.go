package codec

import (
	"fmt"

	"dive/internal/imgx"
)

// Decoder reconstructs frames from bitstreams produced by Encoder. It must
// be fed frames in encode order.
//
// A Decoder owns everything it hands out: two frame planes that alternate
// between "reference" and "being decoded", the per-macroblock side arrays
// and the DecodedFrame itself, all allocated by NewDecoder, so Decode
// allocates nothing. The price is a lifetime rule: a DecodedFrame (Image,
// MVs, Modes) is valid until the next Decode call on the same Decoder;
// callers that keep a picture longer must Clone it.
type Decoder struct {
	cfg Config
	ref *imgx.Plane // nil until a frame has decoded
	// planes are the decoder's two frame planes. Decode draws into the one
	// that is not ref (the spare) and makes it ref only on success, so a
	// rejected bitstream leaves ref — and the picture the previous
	// DecodedFrame points at — untouched.
	planes [2]*imgx.Plane
	mvs    []MV
	modes  []MBMode
	qps    []int
	frame  DecodedFrame
}

// NewDecoder creates a decoder for streams produced with cfg (only the
// frame dimensions matter on the decode side).
func NewDecoder(cfg Config) (*Decoder, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width%MBSize != 0 || cfg.Height%MBSize != 0 {
		return nil, fmt.Errorf("codec: frame size %dx%d must be positive multiples of %d", cfg.Width, cfg.Height, MBSize)
	}
	n := (cfg.Width / MBSize) * (cfg.Height / MBSize)
	return &Decoder{
		cfg:    cfg,
		planes: [2]*imgx.Plane{imgx.NewPlane(cfg.Width, cfg.Height), imgx.NewPlane(cfg.Width, cfg.Height)},
		mvs:    make([]MV, n),
		modes:  make([]MBMode, n),
		qps:    make([]int, n),
	}, nil
}

// SniffFrameType reads only the frame-type header from a bitstream without
// touching decoder state — servers use it to tell whether a frame is safe to
// decode while the reference is known stale.
func SniffFrameType(data []byte) (t FrameType, err error) {
	err = t.get(NewBitReader(data))
	return t, err
}

// DecodedFrame carries the reconstructed image and decoded side info. It
// and everything it points at belong to the Decoder and are valid until the
// next Decode call (see Decoder).
type DecodedFrame struct {
	Type   FrameType
	BaseQP int
	Image  *imgx.Plane
	MVs    []MV
	Modes  []MBMode
}

// Decode parses one frame bitstream and returns the reconstruction. On
// error the decoder's reference is unchanged: the next valid I-frame (or
// the next P-frame of an undamaged chain) decodes as if the rejected
// bitstream had never arrived.
func (d *Decoder) Decode(data []byte) (*DecodedFrame, error) {
	spare := d.planes[0]
	if spare == d.ref {
		spare = d.planes[1]
	}
	spare.Bump()
	df, err := d.decode(data, spare)
	if err != nil {
		return nil, err
	}
	d.ref = spare
	return df, nil
}

// decode parses data into recon, reading d.ref as the reference.
func (d *Decoder) decode(data []byte, recon *imgx.Plane) (*DecodedFrame, error) {
	r := &BitReader{buf: data}
	var fh frameHeader
	if err := fh.get(r); err != nil {
		return nil, err
	}
	// Counts, not their products in pixels: a crafted count times MBSize
	// can wrap a 32-bit int onto the configured size.
	w, h := d.cfg.Width/MBSize, d.cfg.Height/MBSize
	if fh.mbw != uint32(w) || fh.mbh != uint32(h) {
		return nil, fmt.Errorf("%w: stream is %dx%d MBs, decoder configured for %dx%d px",
			ErrBitstream, fh.mbw, fh.mbh, d.cfg.Width, d.cfg.Height)
	}
	if fh.typ == PFrame && d.ref == nil {
		return nil, fmt.Errorf("%w: P-frame before any I-frame", ErrBitstream)
	}

	baseQP := int(fh.baseQP)
	mvs, modes, qps := d.mvs, d.modes, d.qps
	var mb mbHeader
	var levels [4 * blockSize * blockSize]int32 // one inter macroblock's levels
	var masks [4]uint64                         // and significance masks

	for by := 0; by < h; by++ {
		for bx := 0; bx < w; bx++ {
			i := by*w + bx
			px, py := bx*MBSize, by*MBSize
			if err := mb.get(r); err != nil {
				return nil, err
			}
			if mb.mode != ModeIntra && d.ref == nil {
				return nil, fmt.Errorf("%w: inter macroblock without reference", ErrBitstream)
			}
			modes[i], qps[i] = mb.mode, baseQP
			if mb.mode == ModeIntra {
				// Later macroblocks predict their vector from this cell.
				mvs[i], qps[i] = MV{}, clampQP(baseQP+int(mb.dqp))
				if err := decodeIntraMB(r, recon, px, py, qps[i]); err != nil {
					return nil, err
				}
				continue
			}
			// A skip codes no vector delta: its vector is the predictor.
			pred := predictMV(mvs, w, bx, by)
			mv := MV{pred.X + int16(mb.dx), pred.Y + int16(mb.dy)}
			mvs[i] = mv
			if mb.mode == ModeSkip {
				predictBlock(recon.Pix[py*recon.W+px:], recon.W, d.ref, px, py, mv, fh.subpel)
				continue
			}
			qps[i] = clampQP(baseQP + int(mb.dqp))
			for blk := range masks {
				mask, err := readCoeffs(r, (*[blockSize * blockSize]int32)(levels[blk*blockSize*blockSize:]))
				if err != nil {
					return nil, err
				}
				masks[blk] = mask
			}
			reconstructInterMB(recon, d.ref, px, py, mv, fh.subpel, levels[:], masks[:], qps[i])
		}
	}
	if fh.deblock {
		deblockFrame(recon, qps, w)
	}
	recon.Bump()
	d.frame = DecodedFrame{
		Type: fh.typ, BaseQP: baseQP,
		Image: recon, MVs: mvs, Modes: modes,
	}
	return &d.frame, nil
}

// decodeIntraMB reads per-block prediction modes and coefficients and
// reconstructs one intra MB, mirroring quantizeIntraMB.
func decodeIntraMB(r *BitReader, recon *imgx.Plane, px, py int, qp int) error {
	var pred [blockSize * blockSize]uint8
	var levels [blockSize * blockSize]int32
	var m intraMode
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			if err := m.get(r); err != nil {
				return err
			}
			mask, err := readCoeffs(r, &levels)
			if err != nil {
				return err
			}
			intraPredict(recon, px+bx, py+by, int(m), &pred)
			reconstructBlock(recon, px+bx, py+by, pred[:], blockSize, &levels, mask, qp)
		}
	}
	return nil
}
