package codec

import (
	"encoding/binary"
	"fmt"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// FrameType distinguishes intra-coded from predicted frames.
type FrameType int

// Frame types.
const (
	IFrame FrameType = iota + 1
	PFrame
)

// String returns "I" or "P".
func (t FrameType) String() string {
	if t == IFrame {
		return "I"
	}
	return "P"
}

// MBMode is the coding mode of one macroblock.
type MBMode int

// Macroblock modes.
const (
	ModeSkip MBMode = iota + 1 // no residual; MV equals the predictor
	ModeInter
	ModeIntra
)

// Config configures an Encoder/Decoder pair.
type Config struct {
	Width, Height int      // frame size; must be multiples of 16
	GoPSize       int      // I-frame interval; <= 1 means every frame is I
	Method        MEMethod // motion estimation strategy
	// SubPel enables half-pixel motion vectors (bilinear interpolation),
	// matching the sub-pel precision of production encoders. Vectors are
	// then expressed in half-pel units throughout (MotionField.Scale 2).
	SubPel bool
	// Deblock enables the in-loop deblocking filter: block boundaries that
	// look like quantization artifacts are smoothed on the reconstruction
	// both encoder- and decoder-side, improving reference quality at high
	// QP exactly as H.264's loop filter does.
	Deblock bool
	// Obs, when set, makes rate control keep its trial trace
	// (EncodedFrame.RCTrials) for the decision journal. Nil disables it;
	// the Decoder ignores it.
	Obs *obs.Recorder
	// Workers is ignored: the encoder runs on its caller's goroutine.
	Workers int
}

// DefaultConfig returns sensible defaults for a frame size.
func DefaultConfig(w, h int) Config {
	return Config{
		Width: w, Height: h,
		GoPSize: 48,
		Method:  MEHex,
		SubPel:  true,
		Deblock: true,
	}
}

// MotionField is the per-macroblock motion information the encoder computed
// for one frame — the "free" signal DiVE's analytics consume.
type MotionField struct {
	MBW, MBH int
	MVs      []MV
	Modes    []MBMode
	// SADs holds the matching cost of each chosen vector, a cheap
	// confidence signal (high SAD = unreliable vector).
	SADs []int
	// Scale is the sub-pel denominator: a vector of (x, y) represents a
	// displacement of (x/Scale, y/Scale) pixels. 1 for full-pel, 2 for
	// half-pel streams.
	Scale int
}

// At returns the MV of macroblock (bx, by).
func (f *MotionField) At(bx, by int) MV { return f.MVs[by*f.MBW+bx] }

// NonZeroRatio returns η, the fraction of macroblocks with a non-zero
// motion vector — the paper's ego-motion signal (Section III-B2).
func (f *MotionField) NonZeroRatio() float64 {
	if len(f.MVs) == 0 {
		return 0
	}
	n := 0
	for _, v := range f.MVs {
		if !v.IsZero() {
			n++
		}
	}
	return float64(n) / float64(len(f.MVs))
}

// EncodedFrame is one compressed frame plus the side information the
// analytics layer uses. The encoder hands out one EncodedFrame, one QPs
// array and one Data buffer for every frame: all three belong to the encoder
// and are overwritten by its next AnalyzeAndQuantize/Encode. A caller that
// keeps a frame past that keeps a Clone.
type EncodedFrame struct {
	Type   FrameType
	Index  int
	BaseQP int
	MBW    int
	MBH    int
	// Motion is the encoder's analysis for this frame (nil for the very
	// first frame). Its backing storage is recycled: the field stays valid
	// until the second following Encode/AnalyzeMotion call on the same
	// encoder; consumers that need it longer must copy it
	// (mvfield.FromMotion does).
	Motion  *MotionField
	QPs     []int // final per-MB QP
	Data    []byte
	NumBits int
	// RCTrials is every trial pass rate control ran, in run order, with its
	// bit count (past the budget, off the bounded path, the count it stopped
	// at): its length is the frame's rate-control cost. The trial at BaseQP
	// (unless that is 51) and the one below it (unless that is under MinQP)
	// are always there. Nil when rate control did not run or telemetry is
	// disabled (Config.Obs nil) — the decision journal is its consumer.
	RCTrials []obs.QPTrial
}

// Bytes returns the frame payload size in bytes.
func (ef *EncodedFrame) Bytes() int { return len(ef.Data) }

// Clone returns a copy of the frame that owns its QPs and Data, and so
// outlives the encoder's next frame. Motion and RCTrials are shared: Motion
// keeps its own lifetime (above) and rate control builds RCTrials afresh
// for every frame.
func (ef *EncodedFrame) Clone() *EncodedFrame {
	c := *ef
	c.QPs = append([]int(nil), ef.QPs...)
	c.Data = append([]byte(nil), ef.Data...)
	return &c
}

// EncodeOptions controls one frame's encode.
type EncodeOptions struct {
	// BaseQP is the frame QP when TargetBits is zero.
	BaseQP int
	// QPOffsets adds a per-macroblock offset (len MBW*MBH) to the base QP;
	// nil means a flat map. This is the differential-encoding hook: DiVE
	// sets 0 for foreground macroblocks and δ for background.
	QPOffsets []int
	// TargetBits, when positive, selects the lowest base QP whose output
	// fits within the budget (one-pass rate control via bisection; motion
	// estimation is reused across trials).
	TargetBits int
	// IFrameBudgetScale multiplies TargetBits when the frame is
	// intra-coded. Intra frames cost several times a P-frame at equal
	// quality; scaling their budget (and letting the transmit queue absorb
	// the burst) is how streaming rate controllers avoid periodic quality
	// collapses. Zero means 1.
	IFrameBudgetScale float64
	// ForceIFrame starts a new GoP at this frame.
	ForceIFrame bool
	// MinQP floors the frame QP: BaseQP is raised to it and rate control
	// never bisects below it. Degradation ladders raise this floor on a
	// failing link so the encoder cannot spend bits the uplink has already
	// shown it cannot carry. Zero (the default) imposes no floor.
	MinQP int
}

// Encoder compresses a sequence of frames.
type Encoder struct {
	cfg      Config
	mbw, mbh int
	ref      *imgx.Plane // reconstructed previous frame
	// spare is the other reconstruction plane (nil until the second frame):
	// the final quantizePass builds into it and AnalyzeAndQuantize swaps it
	// with ref, so the plane Reconstructed() last handed out is not written
	// before the encode after next.
	spare *imgx.Plane
	// trial is the one-macroblock scratch every quantizePass runs on.
	trial trialScratch
	// job is the encoder's one FrameJob (nil before the first frame):
	// pending from AnalyzeAndQuantize until EmitBitstream hands it out.
	job      *FrameJob
	frameIdx int
	rc       rcModel // what rate control aims its P-frame trials with
	// analyzed/analyzedSeq identify the frame for which `motion` is valid:
	// pointer identity plus the plane's content generation counter, so a
	// caller that reuses one buffer across frames (and bumps it) never
	// reads a stale cached field.
	analyzed    *imgx.Plane
	analyzedSeq uint64
	motion      *MotionField
	// mfBuf rotates two MotionField buffers across analyses: the field
	// returned by one analysis stays intact through the whole next frame,
	// so EncodedFrame.Motion consumers that finish before then never see a
	// recycled buffer (see EncodedFrame.Motion).
	mfBuf  [2]*MotionField
	mfNext int
	// dctScratch is the recycled backing array of the per-frame inter-DCT
	// cache (QP-independent, rebuilt each P-frame, never escapes Encode).
	dctScratch [][blockSize * blockSize]int32
	// dctOr[k] is the OR of cached block k's coefficient magnitudes, which
	// fdctResidual returns with the block: an upper bound on its largest
	// magnitude that lets the quantizer price a block inside its dead zone
	// without reading it (quantizeInterMB).
	dctOr []uint32
}

// NewEncoder validates cfg and creates an encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width%MBSize != 0 || cfg.Height%MBSize != 0 {
		return nil, fmt.Errorf("codec: frame size %dx%d must be positive multiples of %d", cfg.Width, cfg.Height, MBSize)
	}
	if cfg.Method < MEDia || cfg.Method > MEEsa {
		return nil, fmt.Errorf("codec: unknown motion estimation method %d", cfg.Method)
	}
	return &Encoder{
		cfg: cfg, mbw: cfg.Width / MBSize, mbh: cfg.Height / MBSize,
		rc: rcModel{k: 6},
	}, nil
}

// MBDims returns the macroblock grid size.
func (e *Encoder) MBDims() (int, int) { return e.mbw, e.mbh }

// Reconstructed returns the encoder's reconstruction of the last encoded
// frame — bit-exact with what the decoder produces. The plane's backing
// storage is recycled: it stays intact through the whole next
// AnalyzeAndQuantize/Encode (as that frame's reference) but is overwritten
// by the second one; consumers that need it longer must copy it.
func (e *Encoder) Reconstructed() *imgx.Plane { return e.ref }

// predictMV returns the median-of-neighbors MV predictor for macroblock
// (bx, by), identical in encoder and decoder.
func predictMV(mvs []MV, mbw, bx, by int) MV {
	var cands [3]MV
	n := 0
	if bx > 0 {
		cands[n] = mvs[by*mbw+bx-1]
		n++
	}
	if by > 0 {
		cands[n] = mvs[(by-1)*mbw+bx]
		n++
		if bx < mbw-1 {
			cands[n] = mvs[(by-1)*mbw+bx+1]
			n++
		}
	}
	switch n {
	case 0:
		return MV{}
	case 1:
		return cands[0]
	case 2:
		return MV{(cands[0].X + cands[1].X) / 2, (cands[0].Y + cands[1].Y) / 2}
	default:
		return MV{median3(cands[0].X, cands[1].X, cands[2].X), median3(cands[0].Y, cands[1].Y, cands[2].Y)}
	}
}

func median3(a, b, c int16) int16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// AnalyzeMotion runs motion estimation of frame against the current
// reference and returns the motion field without encoding anything. The
// result is cached: a subsequent Encode of the same frame reuses it. The
// cache key is the plane pointer plus its content generation counter
// (imgx.Plane.Seq), so reusing one buffer for successive frames is safe as
// long as writers bump the counter (Set does; direct Pix writers call
// Bump). It returns nil when no reference exists yet (the very first frame).
func (e *Encoder) AnalyzeMotion(frame *imgx.Plane) *MotionField {
	if e.ref == nil {
		return nil
	}
	if e.analyzed == frame && e.analyzedSeq == frame.Seq() && e.motion != nil {
		return e.motion
	}
	scale := 1
	if e.cfg.SubPel {
		scale = 2
	}
	mf := e.nextMotionField(scale)
	for by := 0; by < e.mbh; by++ {
		for bx := 0; bx < e.mbw; bx++ {
			e.searchMB(frame, mf, bx, by)
		}
	}
	e.analyzed = frame
	e.analyzedSeq = frame.Seq()
	e.motion = mf
	return mf
}

// nextMotionField returns the next recycled MotionField buffer. Rotating two
// buffers keeps the previously returned field intact through the whole next
// analysis (see EncodedFrame.Motion). No zeroing is needed: searchMB writes
// every cell, and predictors only read cells already finalized this frame.
func (e *Encoder) nextMotionField(scale int) *MotionField {
	n := e.mbw * e.mbh
	slot := e.mfNext
	e.mfNext = 1 - e.mfNext
	mf := e.mfBuf[slot]
	if mf == nil {
		mf = &MotionField{
			MBW: e.mbw, MBH: e.mbh,
			MVs:   make([]MV, n),
			Modes: make([]MBMode, n),
			SADs:  make([]int, n),
		}
		e.mfBuf[slot] = mf
	}
	mf.Scale = scale
	return mf
}

// The motion search's operating point.
const (
	// skipThreshold is the SAD at the predictor below which a macroblock is
	// skipped unsearched: 2 luma levels per pixel over a 16×16 macroblock.
	skipThreshold = 512
	// searchRange is the radius, in whole pixels, of the window searchMB
	// has searchInteger look for a macroblock's vector in.
	searchRange = 12
)

// searchMB runs the skip test and motion search for macroblock (bx, by) and
// writes its vector, mode and SAD into mf. Predictors are read from mf.MVs,
// so the left, top and top-right entries must be final before this cell runs
// — raster order guarantees it.
func (e *Encoder) searchMB(frame *imgx.Plane, mf *MotionField, bx, by int) {
	i := by*e.mbw + bx
	pred := predictMV(mf.MVs, e.mbw, bx, by)
	px, py := bx*MBSize, by*MBSize
	// Skip test at the predictor.
	var sadPred int
	if e.cfg.SubPel {
		sadPred = sadHalf(frame, px, py, e.ref, px*2+int(pred.X), py*2+int(pred.Y), skipThreshold)
	} else {
		sadPred = imgx.SAD(frame, px, py, e.ref, px+int(pred.X), py+int(pred.Y), MBSize, MBSize, skipThreshold)
	}
	if sadPred < skipThreshold {
		mf.MVs[i] = pred
		mf.Modes[i] = ModeSkip
		mf.SADs[i] = sadPred
		return
	}
	fullPred := pred
	if e.cfg.SubPel {
		fullPred = MV{pred.X / 2, pred.Y / 2}
	}
	mv, cost, sad := searchInteger(frame, e.ref, px, py, fullPred, e.cfg.Method, searchRange)
	if e.cfg.SubPel {
		mv, cost = refineHalf(frame, e.ref, px, py, MV{mv.X * 2, mv.Y * 2}, sad)
	}
	mf.MVs[i] = mv
	mf.Modes[i] = ModeInter
	mf.SADs[i] = cost
}

// Encode compresses one frame and advances the encoder state. It is the
// composition of the two-phase API (see twophase.go): quantize, then
// emit immediately.
func (e *Encoder) Encode(frame *imgx.Plane, opts EncodeOptions) (*EncodedFrame, error) {
	job, err := e.AnalyzeAndQuantize(frame, opts)
	if err != nil {
		return nil, err
	}
	return e.EmitBitstream(job)
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

// buildInterDCTCache computes the forward DCT of every inter macroblock's
// motion-compensated residual (4 blocks per MB, in raster order), each block
// straight from the frame and the prediction into its cache slot and its
// magnitude bound into e.dctOr. The cache is QP-independent and shared by
// all passes. The backing array is recycled across frames without zeroing:
// non-inter slots are never read (only ModeInter macroblocks index into the
// cache).
func (e *Encoder) buildInterDCTCache(frame *imgx.Plane, mf *MotionField) [][blockSize * blockSize]int32 {
	n := e.mbw * e.mbh * 4
	if cap(e.dctScratch) < n {
		e.dctScratch = make([][blockSize * blockSize]int32, n)
		e.dctOr = make([]uint32, n)
	}
	var pred [MBSize * MBSize]uint8
	for i, mode := range mf.Modes {
		if mode != ModeInter {
			continue
		}
		px, py := i%e.mbw*MBSize, i/e.mbw*MBSize
		predictBlock(pred[:], MBSize, e.ref, px, py, MBSize, MBSize, mf.MVs[i], e.cfg.SubPel)
		for blk := 0; blk < 4; blk++ {
			bx, by := blk%2*blockSize, blk/2*blockSize
			e.dctOr[i*4+blk] = fdctResidual(frame.Pix[(py+by)*frame.W+px+bx:], frame.W,
				pred[by*MBSize+bx:], MBSize, &e.dctScratch[i*4+blk])
		}
	}
	return e.dctScratch[:n]
}

// Intra prediction modes, a simplified version of H.264's directional
// prediction: DC (neighbor mean), vertical (columns continue the row
// above), horizontal (rows continue the column to the left). The encoder
// picks the mode with the smallest prediction residual per 8×8 block and
// signals it in the bitstream.
const (
	intraModeDC = iota
	intraModeVertical
	intraModeHorizontal
	numIntraModes
)

// intraEdge is the causal neighbourhood of one 8×8 block: the
// reconstructed row above and column to the left, read once from Pix (both
// lie inside the frame whenever they exist), and the DC predictor they
// imply — their rounded mean, mid-gray at the frame corner. Encoder and
// decoder predict every intra block from it, in raster order, so the
// prediction is causal on both sides.
type intraEdge struct {
	top, left       [blockSize]uint8
	hasTop, hasLeft bool
	dc              uint8
}

func loadIntraEdge(recon *imgx.Plane, px, py int) intraEdge {
	e := intraEdge{hasTop: py > 0, hasLeft: px > 0, dc: 128}
	sum := 0
	if e.hasTop {
		copy(e.top[:], recon.Pix[(py-1)*recon.W+px:])
		for _, v := range e.top {
			sum += int(v)
		}
	}
	if e.hasLeft {
		for y := range e.left {
			v := recon.Pix[(py+y)*recon.W+px-1]
			e.left[y] = v
			sum += int(v)
		}
	}
	switch {
	case e.hasTop && e.hasLeft:
		e.dc = uint8((sum + blockSize) / (2 * blockSize))
	case e.hasTop || e.hasLeft:
		e.dc = uint8((sum + blockSize/2) / blockSize)
	}
	return e
}

// predict fills pred under mode, one 64-bit word per row: the top row
// itself, or a byte repeated eight times. Modes that lack their neighbor
// degrade to DC.
func (e *intraEdge) predict(mode int, pred *[blockSize * blockSize]uint8) {
	const ones = 0x0101010101010101
	switch {
	case mode == intraModeVertical && e.hasTop:
		top := binary.LittleEndian.Uint64(e.top[:])
		for y := 0; y < blockSize; y++ {
			binary.LittleEndian.PutUint64(pred[y*blockSize:], top)
		}
	case mode == intraModeHorizontal && e.hasLeft:
		for y, v := range e.left {
			binary.LittleEndian.PutUint64(pred[y*blockSize:], uint64(v)*ones)
		}
	default:
		dc := uint64(e.dc) * ones
		for y := 0; y < blockSize; y++ {
			binary.LittleEndian.PutUint64(pred[y*blockSize:], dc)
		}
	}
}

// intraPredict fills pred with the prediction for the 8×8 block at
// (px, py) under the given mode — the decoder's entry point.
func intraPredict(recon *imgx.Plane, px, py, mode int, pred *[blockSize * blockSize]uint8) {
	e := loadIntraEdge(recon, px, py)
	e.predict(mode, pred)
}

// chooseIntra picks the mode with the smallest absolute prediction residual
// for the block of cur at (px, py) and fills pred with its prediction. The
// three modes are scored by intraSAD in one sweep over the block's rows.
func chooseIntra(cur, recon *imgx.Plane, px, py int, pred *[blockSize * blockSize]uint8) int {
	e := loadIntraEdge(recon, px, py)
	mode := e.choose(intraSAD(cur.Pix[py*cur.W+px:], cur.W, &e.top, &e.left, e.dc))
	e.predict(mode, pred)
	return mode
}

// choose returns the mode with the smallest of the three scores — the first
// such mode on a tie, and never a mode that would degrade to DC.
func (e *intraEdge) choose(sadDC, sadV, sadH int) int {
	mode, best := intraModeDC, sadDC
	if e.hasTop && sadV < best {
		mode, best = intraModeVertical, sadV
	}
	if e.hasLeft && sadH < best {
		mode = intraModeHorizontal
	}
	return mode
}

// intraSADGo returns the sums of absolute differences between the 8×8 block
// whose rows start stride bytes apart in cur and its three predictions: dc
// everywhere, the top row repeated down the block, and each row's left
// value repeated across it. Each sum is at most 64·255 = 16 320. It
// specifies intraSAD and is its body where there is no assembly one.
func intraSADGo(cur []uint8, stride int, top, left *[blockSize]uint8, dc uint8) (sadDC, sadV, sadH int) {
	for y, l := range left {
		row := cur[y*stride:][:blockSize]
		for x, v := range row {
			sadDC += absInt(int(v) - int(dc))
			sadV += absInt(int(v) - int(top[x]))
			sadH += absInt(int(v) - int(l))
		}
	}
	return sadDC, sadV, sadH
}

func clampPixI(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func clampQP(qp int) int {
	if qp < 0 {
		return 0
	}
	if qp > 51 {
		return 51
	}
	return qp
}
