package core

import (
	"fmt"

	"dive/internal/codec"
	"dive/internal/imgx"
	"dive/internal/mvfield"
	"dive/internal/obs"
	"dive/internal/parallel"
)

// PendingFrame is one frame's work carried between AnalyzeFrame and
// EmitFrame: the analysis byproducts, the quantized encode job, and the
// still-open root trace span. The frame's bitstream does not exist yet —
// Result().Encoded carries every field except Data until EmitFrame fills it.
//
// Hazard analysis for pipelined use: AnalyzeFrame advances every piece of
// mutable agent and encoder state the NEXT frame's analysis reads (encoder
// reference and QP map, foreground cache, FOE calibrator, RNG, frame
// counter), while EmitFrame reads only the job's own quantized coefficients
// and immutable encoder config. Frame N+1 may therefore be analyzed while
// frame N's bitstream is still being emitted, with no synchronization beyond
// the pipeline's stage ordering.
type PendingFrame struct {
	res *FrameResult
	job *codec.FrameJob
	// ctx is the root trace context (journal identity); actx is ctx rebased
	// onto the root "frame" span so stage spans — including the emit span
	// recorded on another goroutine — become its children.
	ctx  obs.TraceContext
	actx obs.TraceContext
	span obs.Span // open root "frame" span, ended when EmitFrame completes
	now  float64
}

// Result returns the frame's analysis result. Before EmitFrame completes,
// Result().Encoded carries the frame metadata (type, QPs, NumBits, motion)
// with a nil Data payload.
func (p *PendingFrame) Result() *FrameResult { return p.res }

// beginFrameTrace mints the causal trace and opens the root "frame" span
// for the frame with the given index. In pipelined runs this happens at
// capture (stage A), so the root span covers capture wait as well and every
// later stage span — recorded on other goroutines — parents onto it.
func (a *Agent) beginFrameTrace(frameIdx int) (obs.TraceContext, obs.Span) {
	r := a.cfg.Obs
	ctx := r.StartTrace(frameIdx)
	return ctx, r.StartStageSpan(ctx, "frame", "agent", obs.StageFrame)
}

// AnalyzeFrame runs phase one of the frame pipeline on one captured frame:
// motion analysis, the moving/stopped judgement, rotation removal,
// foreground extraction, adaptive QP selection, rate control and
// quantization (codec.AnalyzeAndQuantize). On return the agent is ready to
// analyze the next frame; the returned PendingFrame must be passed to
// EmitFrame — in production order, exactly once — to obtain the bitstream.
func (a *Agent) AnalyzeFrame(frame *imgx.Plane, now float64) (*PendingFrame, error) {
	ctx, span := a.beginFrameTrace(a.frameNum)
	return a.analyzeFrame(frame, now, ctx, span)
}

// analyzeFrame is AnalyzeFrame with the trace pre-minted (possibly on an
// earlier pipeline stage). It owns all mutable agent state; callers must
// serialize invocations in frame order.
func (a *Agent) analyzeFrame(frame *imgx.Plane, now float64, ctx obs.TraceContext, frameSpan obs.Span) (*PendingFrame, error) {
	res := &FrameResult{}
	r := a.cfg.Obs
	actx := frameSpan.Context()
	// Carry the root-span context outward: transport and edge spans become
	// children of the frame span, exactly like the local stage spans.
	res.Trace = actx
	p := &PendingFrame{res: res, ctx: ctx, actx: actx, span: frameSpan, now: now}

	// Preprocessing: motion vectors come free from the encoder.
	motionSpan := r.StartStageSpan(actx, "motion", "agent", obs.StageMotion)
	mf := a.enc.AnalyzeMotion(frame)
	motionSpan.End()
	if mf != nil {
		field := mvfield.FromMotion(mf, a.cfg.Focal, a.cx(), a.cy(), 0)
		res.RawField = field
		res.Eta = field.Eta()
		res.Moving = res.Eta > a.cfg.EtaThreshold

		if res.Moving {
			// Rotational component elimination (Section III-B3).
			if !a.cfg.DisableRotation {
				rotSpan := r.StartStageSpan(actx, "rotation", "agent", obs.StageRotation)
				phiX, phiY, err := a.cfg.Rotation.EstimateWith(&a.mv, field, a.foeCal.FOE(), a.rng)
				if err == nil {
					res.Rotation = RotationEstimate{PhiX: phiX, PhiY: phiY, OK: true}
					field = field.RemoveRotation(phiX, phiY)
				}
				rotSpan.End()
			}
			// FOE calibration on the corrected field.
			if foe, err := mvfield.EstimateFOEWith(&a.mv, field, a.rng); err == nil {
				a.foeCal.Update(foe)
				res.FOE = foe
			} else {
				res.FOE = a.foeCal.FOE()
			}
			res.Field = field

			// Foreground extraction (Section III-C).
			fgSpan := r.StartStageSpan(actx, "foreground", "agent", obs.StageForeground)
			fg := extractForeground(&a.fg, field, a.foeCal.FOE(), a.cfg.Foreground)
			fgSpan.End()
			if fg != nil && !fg.Empty() {
				a.lastFG = fg
			} else {
				res.Reused = true
			}
		} else {
			// Stopped: no usable ground flow; reuse the latest foreground.
			res.Field = field
			res.Reused = true
		}
	} else {
		res.Reused = a.lastFG != nil
	}
	res.Foreground = a.lastFG

	// Adaptive video encoding (Section III-D).
	frac := 0.0
	var mask []bool
	if a.lastFG != nil {
		frac = a.lastFG.Fraction()
		mask = a.lastFG.Mask
	}
	res.Delta = a.cfg.AVE.Delta(frac)
	mbw, mbh := a.enc.MBDims()
	a.qpOffsets = BuildQPOffsetsInto(a.qpOffsets, mask, mbw*mbh, res.Delta)
	offsets := a.qpOffsets

	opts := codec.EncodeOptions{QPOffsets: offsets, ForceIFrame: a.forceI, MinQP: a.degrade.QPFloor}
	if a.cfg.CRF {
		opts.BaseQP = a.cfg.CRFQP
	} else {
		res.EstimatedBandwidth = a.estimator.EstimateAt(now)
		res.TargetBits = a.cfg.AVE.TargetBits(res.EstimatedBandwidth, a.cfg.FPS)
		// The degradation ladder shrinks the budget before the bisection
		// sees it: a struggling link gets cheaper frames, not hopeful ones.
		if a.degrade.BudgetScale > 0 && a.degrade.BudgetScale < 1 {
			res.TargetBits = int(float64(res.TargetBits) * a.degrade.BudgetScale)
		}
		opts.TargetBits = res.TargetBits
		opts.IFrameBudgetScale = a.cfg.AVE.IFrameBudgetScale
	}
	encSpan := r.StartStageSpan(actx, "encode", "agent", obs.StageEncode)
	job, err := a.enc.AnalyzeAndQuantize(frame, opts)
	encSpan.End()
	a.forceI = false
	if err != nil {
		return nil, err
	}
	p.job = job
	ef := job.Frame
	res.Encoded = ef
	a.frameNum++

	if r != nil {
		r.Counter(obs.MetricFrames).Inc()
		r.Counter(obs.MetricBits).Add(int64(ef.NumBits))
		a.sessFrames.Inc()
		a.sessBits.Add(int64(ef.NumBits))
		// The bitstream does not exist yet; the writer pads to a byte
		// boundary, so its length is fully determined by the bit count.
		r.Counter(obs.MetricBytes).Add(int64((ef.NumBits + 7) / 8))
		if ef.Type == codec.IFrame {
			r.Counter(obs.MetricIFrames).Inc()
		}
		r.Gauge(obs.GaugeEta).Set(res.Eta)
		r.Gauge(obs.GaugeFGFraction).Set(frac)
		// Journal the frame now, before any transport feedback for it can
		// arrive: AmendLastJournal from OnTransmitComplete/ForceNextIFrame
		// must land on this frame. Its stage durations are the spans above;
		// obs.Recorder.FrameRecords joins the two.
		r.RecordJournal(a.journalRecord(ctx, res, ef, now, frac))
	}
	return p, nil
}

// EmitFrame runs phase two: it serializes the pending frame's bitstream
// (codec.EmitBitstream) and closes the frame's root span. It touches no
// mutable agent analysis state, so it may run concurrently with AnalyzeFrame
// calls for later frames; pending frames must be emitted in production
// order, exactly once.
func (a *Agent) EmitFrame(p *PendingFrame) (*FrameResult, error) {
	if p == nil || p.job == nil {
		return nil, fmt.Errorf("core: EmitFrame on a consumed or nil pending frame")
	}
	r := a.cfg.Obs
	emitSpan := r.StartSpan(p.actx, "emit", "agent")
	ef, err := a.enc.EmitBitstream(p.job)
	emitSpan.End()
	p.job = nil
	if err != nil {
		return nil, err
	}
	p.res.Encoded = ef
	p.span.End()
	return p.res, nil
}

// ProcessStream runs frames [0, n) through the agent as a bounded-depth
// software pipeline with three stages per frame:
//
//	A: capture — source(i) produces the frame and its capture time
//	   (rendering, file reads), and the frame's trace is minted;
//	B: analysis — motion, foreground, rate control and quantization
//	   (AnalyzeFrame), then the post hook (transport send, outage
//	   decisions, bandwidth feedback);
//	C: emission — entropy coding (EmitFrame), then the deliver hook
//	   (decode, detection, result handling).
//
// Up to depth frames are in flight at once, so frame N+1's capture and
// analysis overlap frame N's entropy coding and delivery. The execution
// order is parallel.Pipeline's contract: per-frame stage order, per-stage
// frame order (each stage is a single goroutine), at most depth frames
// between capture and delivery. Consequently bitstreams are byte-identical
// to the serial ProcessFrame loop at every depth, and hooks observe frames
// in order. With depth <= 1 or a single-worker codec configuration the
// stages run inline — exactly the serial loop.
//
// Hook confinement: post runs on the analysis stage and may use the
// stage-B agent surface (OnTransmitComplete, ForceNextIFrame); deliver runs
// on the emission stage and may use the stage-C surface (TrackLocally,
// OnDetections, LastDetections). Neither may call ProcessFrame/AnalyzeFrame
// reentrantly. post observes the frame before its bitstream exists:
// Result().Encoded.Data is nil until stage C.
func (a *Agent) ProcessStream(n, depth int,
	source func(i int) (*imgx.Plane, float64),
	post func(i int, fr *FrameResult) error,
	deliver func(i int, fr *FrameResult) error,
) (parallel.PipelineStats, error) {
	if source == nil {
		return parallel.PipelineStats{}, fmt.Errorf("core: ProcessStream requires a frame source")
	}
	if depth < 1 {
		depth = 1
	}
	type slot struct {
		frame *imgx.Plane
		now   float64
		ctx   obs.TraceContext
		span  obs.Span
		pf    *PendingFrame
	}
	// Slot i%depth is reused by frame i+depth only after frame i left the
	// last stage — guaranteed by the pipeline's in-flight bound.
	slots := make([]slot, depth)
	base := a.frameNum
	pool := parallel.New(a.cfg.Codec.Workers)

	return pool.Pipeline(n, depth,
		func(i int) error { // A: capture
			s := &slots[i%depth]
			s.frame, s.now = source(i)
			if s.frame == nil {
				return fmt.Errorf("core: ProcessStream source returned a nil frame at %d", i)
			}
			s.ctx, s.span = a.beginFrameTrace(base + i)
			return nil
		},
		func(i int) error { // B: analysis + quantization
			s := &slots[i%depth]
			pf, err := a.analyzeFrame(s.frame, s.now, s.ctx, s.span)
			if err != nil {
				return err
			}
			s.pf = pf
			if post != nil {
				return post(i, pf.res)
			}
			return nil
		},
		func(i int) error { // C: bitstream emission + delivery
			s := &slots[i%depth]
			fr, err := a.EmitFrame(s.pf)
			s.pf, s.frame = nil, nil
			if err != nil {
				return err
			}
			if deliver != nil {
				return deliver(i, fr)
			}
			return nil
		},
	)
}
