package core

import (
	"fmt"
	"math/rand"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/mvfield"
	"dive/internal/netsim"
	"dive/internal/obs"
)

// AgentConfig assembles the whole DiVE agent.
type AgentConfig struct {
	Width, Height int
	FPS           float64
	// Focal is the camera focal length in pixels (needed by the geometric
	// stages; a rough calibration suffices in practice).
	Focal float64
	Codec codec.Config
	// EtaThreshold is the non-zero MV ratio above which the agent is
	// judged to be moving (the paper uses 0.15).
	EtaThreshold float64
	Rotation     mvfield.RotationEstimator
	Foreground   ForegroundConfig
	AVE          AVEConfig
	Track        TrackConfig
	// BandwidthWindow is the sliding estimation window in seconds.
	BandwidthWindow float64
	// BandwidthPrior seeds the estimator before any feedback (bits/s).
	BandwidthPrior float64
	// OutageTimeout is the head-of-queue timer (seconds): if the oldest
	// queued frame has not started transmitting within this time, the
	// agent declares a link outage and switches to local tracking.
	OutageTimeout float64
	// CRF, when true, disables bandwidth-driven rate control and encodes
	// every frame at the constant base quantizer crfQP: foreground
	// macroblocks then sit exactly at crfQP and background at crfQP+δ. The
	// Figure 12 experiment sweeps a fixed δ in this mode.
	CRF bool
	// DisableRotation skips rotational-component elimination — the
	// ablation of the preprocessing stage. Foreground extraction then
	// consumes raw (rotation-contaminated) vectors.
	DisableRotation bool
	Seed            int64
	// Obs receives pipeline telemetry (per-stage timings, frame lifecycle
	// records, rate-control internals). Nil disables instrumentation at a
	// cost of a few nanoseconds per frame.
	Obs *obs.Recorder
}

// DefaultAgentConfig returns a full DiVE configuration for a frame size and
// frame rate.
func DefaultAgentConfig(w, h int, fps, focal float64) AgentConfig {
	cc := codec.DefaultConfig(w, h)
	cc.GoPSize = 96 // long GoP: intra refresh is expensive on a thin uplink
	return AgentConfig{
		Width: w, Height: h, FPS: fps, Focal: focal,
		Codec:           cc,
		EtaThreshold:    0.15,
		Rotation:        *mvfield.NewRotationEstimator(),
		Foreground:      DefaultForegroundConfig(),
		AVE:             DefaultAVEConfig(),
		Track:           DefaultTrackConfig(),
		BandwidthWindow: 0.25,
		BandwidthPrior:  netsim.Mbps(2),
		OutageTimeout:   0.35,
		Seed:            1,
	}
}

// RotationEstimate is the preprocessing output for one frame.
type RotationEstimate struct {
	PhiX, PhiY float64 // per-frame pitch and yaw increments, radians
	OK         bool
}

// FrameResult is everything the agent produced for one frame.
type FrameResult struct {
	Encoded *codec.EncodedFrame
	// Eta is the non-zero motion vector ratio.
	Eta float64
	// Moving is the ego-motion judgement.
	Moving bool
	// Rotation is the estimated (and removed) rotation.
	Rotation RotationEstimate
	// FOE is the per-frame focus of expansion in centered coordinates
	// (only meaningful when Moving).
	FOE geom.Vec2
	// Foreground is the extraction used for this frame (possibly reused
	// from an earlier frame, as the paper prescribes when stopped).
	Foreground *ForegroundResult
	// Reused reports whether Foreground was carried over.
	Reused bool
	// Delta is the background QP offset applied.
	Delta int
	// TargetBits is the rate-control budget derived from the bandwidth
	// estimate.
	TargetBits int
	// EstimatedBandwidth is the uplink estimate (bits/s) at encode time.
	EstimatedBandwidth float64
	// Field is the rotation-corrected flow field (nil on the first
	// frame), the input to foreground extraction.
	Field *mvfield.Field
	// RawField is the uncorrected flow field. Local tracking must use it:
	// boxes follow the actual image motion, rotation included.
	RawField *mvfield.Field
	// Trace is the frame's causal trace context, minted at capture. The
	// transport carries it to the edge (FrameMsg fields over TCP,
	// Link.SendTraced in the simulator) so server-side spans stitch into
	// the same trace. Invalid (zero) when telemetry is disabled.
	Trace obs.TraceContext
}

// FGShare is the SLO accuracy proxy for the frame: the foreground fraction
// the encoder protected, 0 when no foreground was ever extracted or fr is
// nil.
func (fr *FrameResult) FGShare() float64 {
	if fr == nil || fr.Foreground == nil {
		return 0
	}
	return fr.Foreground.Fraction()
}

// Agent is a DiVE mobile agent: it turns raw frames into differentially
// encoded bitstreams sized to the estimated uplink, and tracks cached
// detections locally during outages.
type Agent struct {
	cfg       AgentConfig
	enc       *codec.Encoder
	estimator *netsim.Estimator
	foeCal    *mvfield.FOECalibrator
	rng       *rand.Rand
	lastFG    *ForegroundResult
	lastDets  []detect.Detection
	frameNum  int
	forceI    bool
	// degrade is the active graceful-degradation response (set by the
	// transport's link-health ladder) and health the score it journaled
	// under; both are read at encode time.
	degrade Degradation
	health  float64
	// qpOffsets is the recycled per-frame QP offset map handed to the
	// encoder. The codec never retains it past AnalyzeAndQuantize, so one
	// buffer serves every frame.
	qpOffsets []int
	// mv and fg are the analysis working storage (estimator and foreground
	// scratch), reused every frame. Nothing in them escapes
	// analyzeFrame: whatever a FrameResult carries is freshly allocated and
	// the caller's to keep.
	mv mvfield.Scratch
	fg fgScratch
}

// NewAgent validates the configuration and builds an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.FPS <= 0 {
		return nil, fmt.Errorf("core: FPS must be positive")
	}
	if cfg.Focal <= 0 {
		return nil, fmt.Errorf("core: focal length must be positive")
	}
	if cfg.Codec.Width != cfg.Width || cfg.Codec.Height != cfg.Height {
		return nil, fmt.Errorf("core: codec size %dx%d does not match agent size %dx%d",
			cfg.Codec.Width, cfg.Codec.Height, cfg.Width, cfg.Height)
	}
	if cfg.Codec.Obs == nil {
		cfg.Codec.Obs = cfg.Obs
	}
	enc, err := codec.NewEncoder(cfg.Codec)
	if err != nil {
		return nil, err
	}
	estimator := netsim.NewEstimator(cfg.BandwidthWindow, cfg.BandwidthPrior)
	estimator.Obs = cfg.Obs
	return &Agent{
		cfg:       cfg,
		enc:       enc,
		estimator: estimator,
		foeCal:    mvfield.NewFOECalibrator(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Config returns the agent configuration.
func (a *Agent) Config() AgentConfig { return a.cfg }

// cx and cy are the principal point coordinates.
func (a *Agent) cx() float64 { return float64(a.cfg.Width) / 2 }
func (a *Agent) cy() float64 { return float64(a.cfg.Height) / 2 }

// ProcessFrame runs the full DiVE pipeline on one captured frame at
// simulated time now and returns the encoded frame plus all analysis
// byproducts: it mints the frame's trace and opens the root "frame" span,
// analyzes, quantizes and encodes (analyzeFrame), hands out a clone of the
// encoder's frame, and closes the root span. Everything in the result is the
// caller's to keep (the encoded frame's Motion has codec.EncodedFrame's own
// lifetime). A frame of another size than the agent's is an error before
// anything runs on it — no trace is minted, no estimate, calibration or
// reference moves — so the next good frame encodes as if it had never been
// offered.
func (a *Agent) ProcessFrame(frame *imgx.Plane, now float64) (*FrameResult, error) {
	if frame.W != a.cfg.Width || frame.H != a.cfg.Height {
		return nil, fmt.Errorf("core: frame size %dx%d does not match agent size %dx%d", frame.W, frame.H, a.cfg.Width, a.cfg.Height)
	}
	r := a.cfg.Obs
	frameSpan := r.StartStageSpan(r.StartTrace(a.frameNum), "frame", "agent", r.Histogram(obs.StageFrame))
	// Stage spans parent onto the root span, not the bare trace.
	actx := frameSpan.Context()
	res, job, err := a.analyzeFrame(frame, now, actx)
	if err != nil {
		return nil, err
	}
	emitSpan := r.StartSpan(actx, "emit", "agent")
	ef, err := a.enc.EmitBitstream(job)
	emitSpan.End()
	if err != nil {
		return nil, err
	}
	// The encoder's frame is overwritten by the next; the result's is the
	// caller's to keep.
	res.Encoded = ef.Clone()
	frameSpan.End()
	return res, nil
}

// crfQP is the base QP of every frame in CRF mode (AgentConfig.CRF): the
// foreground is coded at the codec's finest quantizer.
const crfQP = 0

// analyzeFrame is everything up to the bitstream's hand-out: motion
// analysis, the moving/stopped judgement, rotation removal, foreground
// extraction, adaptive QP selection, rate control, quantization and entropy
// coding (codec.AnalyzeAndQuantize), and the frame's journal record. The
// returned result's Encoded carries every field except Data until the job is
// emitted.
func (a *Agent) analyzeFrame(frame *imgx.Plane, now float64, actx obs.TraceContext) (*FrameResult, *codec.FrameJob, error) {
	r := a.cfg.Obs
	// Carry the root-span context outward: transport and edge spans become
	// children of the frame span, exactly like the local stage spans.
	res := &FrameResult{Trace: actx}

	// Preprocessing: motion vectors come free from the encoder.
	motionSpan := r.StartStageSpan(actx, "motion", "agent", r.Histogram(obs.StageMotion))
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
				rotSpan := r.StartStageSpan(actx, "rotation", "agent", r.Histogram(obs.StageRotation))
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
			fgSpan := r.StartStageSpan(actx, "foreground", "agent", r.Histogram(obs.StageForeground))
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
		opts.BaseQP = crfQP
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
	encSpan := r.StartStageSpan(actx, "encode", "agent", r.Histogram(obs.StageEncode))
	job, err := a.enc.AnalyzeAndQuantize(frame, opts)
	encSpan.End()
	if err != nil {
		return nil, nil, err // a pending forced I-frame stays pending
	}
	a.forceI = false
	ef := job.Frame
	res.Encoded = ef
	a.frameNum++

	if r != nil {
		r.Counter(obs.MetricFrames).Inc()
		r.Counter(obs.MetricBits).Add(int64(ef.NumBits))
		// Data is handed out only by EmitBitstream; the writer pads to a
		// byte boundary, so its length is fully determined by the bit count.
		r.Counter(obs.MetricBytes).Add(int64((ef.NumBits + 7) / 8))
		if ef.Type == codec.IFrame {
			r.Counter(obs.MetricIFrames).Inc()
		}
		r.Gauge(obs.GaugeEta).Set(res.Eta)
		r.Gauge(obs.GaugeFGFraction).Set(frac)
		// Journal the frame now, before any transport feedback for it can
		// arrive: OnTransmitComplete/ForceNextIFrame amend this frame
		// (amendNewest). Its stage durations are the spans above;
		// obs.Recorder.FrameRecords joins the two.
		r.RecordJournal(a.journalRecord(actx, res, ef, now, frac))
	}
	return res, job, nil
}

// journalRecord assembles the frame's decision-journal entry: the inputs
// and outputs of every decision point ProcessFrame took. Only called with
// telemetry enabled, so the extra field scans here cost nothing on the
// disabled hot path.
func (a *Agent) journalRecord(ctx obs.TraceContext, res *FrameResult, ef *codec.EncodedFrame, now, frac float64) obs.JournalRecord {
	j := obs.JournalRecord{
		TraceID: ctx.TraceID, Frame: ef.Index, TimeSec: now, Type: ef.Type.String(),
		Eta: res.Eta, EtaThreshold: a.cfg.EtaThreshold, Moving: res.Moving,
		RotOK: res.Rotation.OK, PhiX: res.Rotation.PhiX, PhiY: res.Rotation.PhiY,
		RotResidual: 1,
		FOEX:        res.FOE.X, FOEY: res.FOE.Y,
		FGFraction: frac, FGReused: res.Reused,
		Delta: res.Delta, TargetBits: res.TargetBits,
		BaseQP: ef.BaseQP, Bits: ef.NumBits, RCTrials: ef.RCTrials,
		EstBWBps:     res.EstimatedBandwidth,
		DegradeLevel: int(a.degrade.Level), LinkHealth: a.health,
		QPFloor: a.degrade.QPFloor,
	}
	if mo := ef.Motion; mo != nil && len(mo.SADs) > 0 {
		sum := 0
		for _, s := range mo.SADs {
			sum += s
		}
		j.MeanSAD = float64(sum) / float64(len(mo.SADs))
	}
	if res.Rotation.OK {
		// How much flow the estimated rotation explained: the mean flow
		// magnitude that survives removal, relative to the raw field.
		raw, corr := meanFlowMagnitude(res.RawField), meanFlowMagnitude(res.Field)
		if raw > 0 {
			j.RotResidual = corr / raw
		}
	}
	if fg := res.Foreground; fg != nil {
		j.FGObjects = len(fg.Objects)
		j.GroundMBs = countMask(fg.GroundMask)
		j.FGMBs = countMask(fg.Mask)
		j.BGMBs = len(fg.Mask) - j.FGMBs - j.GroundMBs
		if j.BGMBs < 0 {
			j.BGMBs = 0
		}
	}
	return j
}

// meanFlowMagnitude averages |flow| over the valid vectors of a field
// (0 for nil or all-invalid fields).
func meanFlowMagnitude(f *mvfield.Field) float64 {
	if f == nil {
		return 0
	}
	sum, n := 0.0, 0
	for _, v := range f.Vectors {
		if !v.Valid {
			continue
		}
		sum += v.Flow.Norm()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// countMask counts set entries.
func countMask(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

// OnTransmitComplete feeds uplink feedback into the bandwidth estimator:
// bits were serialized onto the link during [start, end].
func (a *Agent) OnTransmitComplete(start, end float64, bits int) {
	a.estimator.Record(start, end, bits)
	a.amendNewest(func(j *obs.JournalRecord) {
		j.AckBits += bits
		j.AckStartSec = start
		j.AckEndSec = end
		if end > start {
			j.RealizedBWBps = float64(bits) / (end - start)
		}
	})
}

// NoteOutageAt journals that the given frame could not be uploaded: the
// head-of-queue timer (or the live transport's ack deadline) fired at
// queueDelay seconds and the agent fell back to local tracking over
// trackedBoxes cached detections. It is addressed by frame because the
// verdict lands after later frames may have been journaled.
func (a *Agent) NoteOutageAt(frame int, queueDelay float64, trackedBoxes int) {
	a.cfg.Obs.AmendJournalFrame(frame, func(j *obs.JournalRecord) {
		j.Outage = true
		j.QueueDelaySec = queueDelay
		j.TrackedBoxes = trackedBoxes
	})
}

// SetDegradation installs the transport's graceful-degradation response and
// the link-health score it was derived from: subsequent frames are encoded
// under the rung's QP floor and budget scale, and journaled with both.
func (a *Agent) SetDegradation(d Degradation, health float64) {
	a.degrade = d
	a.health = health
}

// Degradation returns the active degradation response.
func (a *Agent) Degradation() Degradation { return a.degrade }

// OnDetections caches the newest edge results for outage tracking.
func (a *Agent) OnDetections(dets []detect.Detection) {
	a.lastDets = dets
}

// LastDetections returns the most recent cached detections (possibly
// tracked ones).
func (a *Agent) LastDetections() []detect.Detection { return a.lastDets }

// TrackLocally advances the cached detections with the given flow field
// (typically FrameResult.Field of the frame that could not be uploaded) and
// re-caches the result — DiVE's offline tracking during outages.
func (a *Agent) TrackLocally(field *mvfield.Field) []detect.Detection {
	a.lastDets = TrackDetections(a.lastDets, field, a.cx(), a.cy(), a.cfg.Width, a.cfg.Height, a.cfg.Track)
	return a.lastDets
}

// OutageTimeout returns the configured head-of-queue timer.
func (a *Agent) OutageTimeout() float64 { return a.cfg.OutageTimeout }

// ForceNextIFrame makes the next encoded frame an I-frame. The transport
// calls this when frames were dropped (link outage) so the edge decoder can
// resynchronize on the next delivered frame.
func (a *Agent) ForceNextIFrame() {
	a.forceI = true
	a.cfg.Obs.Counter(obs.MetricForcedIFrames).Inc()
	a.amendNewest(func(j *obs.JournalRecord) { j.ForcedIFrame = true })
}

// amendNewest applies fn to the journal record of the agent's newest frame
// (encoder index frameNum−1); a no-op before the first frame.
func (a *Agent) amendNewest(fn func(*obs.JournalRecord)) {
	if a.frameNum > 0 {
		a.cfg.Obs.AmendJournalFrame(a.frameNum-1, fn)
	}
}

// Reconstructed returns the encoder's reconstruction of the last processed
// frame — bit-exact with what the edge decoder produces, so callers can
// report the quality the server will see.
func (a *Agent) Reconstructed() *imgx.Plane { return a.enc.Reconstructed() }
