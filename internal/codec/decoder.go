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
func SniffFrameType(data []byte) (FrameType, error) {
	r := NewBitReader(data)
	ft, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	ftype := FrameType(ft)
	if ftype != IFrame && ftype != PFrame {
		return 0, fmt.Errorf("%w: bad frame type %d", ErrBitstream, ft)
	}
	return ftype, nil
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
	ft, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	ftype := FrameType(ft)
	if ftype != IFrame && ftype != PFrame {
		return nil, fmt.Errorf("%w: bad frame type %d", ErrBitstream, ft)
	}
	baseQP, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	mbw, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	mbh, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	subpelBit, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	subpel := subpelBit == 1
	deblockBit, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	deblock := deblockBit == 1
	if int(mbw)*MBSize != d.cfg.Width || int(mbh)*MBSize != d.cfg.Height {
		return nil, fmt.Errorf("%w: stream is %dx%d MBs, decoder configured for %dx%d px",
			ErrBitstream, mbw, mbh, d.cfg.Width, d.cfg.Height)
	}
	if ftype == PFrame && d.ref == nil {
		return nil, fmt.Errorf("%w: P-frame before any I-frame", ErrBitstream)
	}

	w, h := int(mbw), int(mbh)
	mvs, modes, qps := d.mvs, d.modes, d.qps
	// One inter macroblock's levels and significance masks.
	var levels [4 * blockSize * blockSize]int32
	var masks [4]uint64

	for by := 0; by < h; by++ {
		for bx := 0; bx < w; bx++ {
			i := by*w + bx
			px, py := bx*MBSize, by*MBSize
			m, err := r.ReadUE()
			if err != nil {
				return nil, err
			}
			mode := MBMode(m)
			modes[i] = mode
			qps[i] = int(baseQP)
			if (mode == ModeSkip || mode == ModeInter) && d.ref == nil {
				return nil, fmt.Errorf("%w: inter macroblock without reference", ErrBitstream)
			}
			switch mode {
			case ModeSkip:
				pred := predictMV(mvs, w, bx, by)
				mvs[i] = pred
				predictBlock(recon.Pix[py*recon.W+px:], recon.W, d.ref, px, py, MBSize, MBSize, pred, subpel)
			case ModeInter:
				dx, err := r.ReadSE()
				if err != nil {
					return nil, err
				}
				dy, err := r.ReadSE()
				if err != nil {
					return nil, err
				}
				dqp, err := r.ReadSE()
				if err != nil {
					return nil, err
				}
				pred := predictMV(mvs, w, bx, by)
				mv := MV{pred.X + int16(dx), pred.Y + int16(dy)}
				mvs[i] = mv
				qp := clampQP(int(baseQP) + int(dqp))
				qps[i] = qp
				for blk := range masks {
					off := blk * blockSize * blockSize
					mask, err := readCoeffs(r, (*[blockSize * blockSize]int32)(levels[off:]))
					if err != nil {
						return nil, err
					}
					masks[blk] = mask
				}
				reconstructInterMB(recon, d.ref, px, py, mv, subpel, levels[:], masks[:], qp)
			case ModeIntra:
				// Later macroblocks predict their vector from this cell.
				mvs[i] = MV{}
				dqp, err := r.ReadSE()
				if err != nil {
					return nil, err
				}
				qp := clampQP(int(baseQP) + int(dqp))
				qps[i] = qp
				if err := decodeIntraMB(r, recon, px, py, qp); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("%w: bad MB mode %d", ErrBitstream, m)
			}
		}
	}
	if deblock {
		deblockFrame(recon, qps, w)
	}
	recon.Bump()
	d.frame = DecodedFrame{
		Type: ftype, BaseQP: int(baseQP),
		Image: recon, MVs: mvs, Modes: modes,
	}
	return &d.frame, nil
}

// decodeIntraMB reads per-block prediction modes and coefficients and
// reconstructs one intra MB, mirroring quantizeIntraMB.
func decodeIntraMB(r *BitReader, recon *imgx.Plane, px, py int, qp int) error {
	var pred [blockSize * blockSize]uint8
	var levels [blockSize * blockSize]int32
	for by := 0; by < MBSize; by += blockSize {
		for bx := 0; bx < MBSize; bx += blockSize {
			m, err := r.ReadUE()
			if err != nil {
				return err
			}
			if m >= numIntraModes {
				return fmt.Errorf("%w: bad intra mode %d", ErrBitstream, m)
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
