package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dive/internal/codec"
	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/mvfield"
	"dive/internal/netsim"
)

// shadowAgent is core.Agent's frame analysis rebuilt from exported functions
// only, in core.Agent.analyzeFrame's order, with a span around every call.
// It exists because the real agent exposes one opaque ProcessFrame: the
// shadow is what gives each layer its own self time. It is fed the same
// frames, seed and link feedback as a real agent, and a traced pass fails
// unless its bitstreams are byte-identical to that agent's — so the layer
// split it reports is the split of the real work, not of a look-alike.
//
// On the agent workloads, whose link runs on a virtual clock, a traced pass
// drives the shadow in place of core.Agent (it carries the same feedback
// methods), so its caches see what the agent's would. A live session depends
// on the wall clock, so there the shadow replays each frame beside the agent.
type shadowAgent struct {
	cfg       core.AgentConfig
	enc       *codec.Encoder
	estimator *netsim.Estimator
	foeCal    *mvfield.FOECalibrator
	rng       *rand.Rand
	lastFG    *core.ForegroundResult
	qpOffsets []int
	forceI    bool
	lastDets  []detect.Detection
}

func newShadowAgent(cfg core.AgentConfig) (*shadowAgent, error) {
	enc, err := codec.NewEncoder(cfg.Codec)
	if err != nil {
		return nil, err
	}
	est := netsim.NewEstimator(cfg.BandwidthWindow, cfg.BandwidthPrior)
	est.Obs = cfg.Obs
	return &shadowAgent{
		cfg:       cfg,
		enc:       enc,
		estimator: est,
		foeCal:    mvfield.NewFOECalibrator(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// The feedback calls the transport makes on core.Agent, mirrored.
func (s *shadowAgent) OnTransmitComplete(start, end float64, bits int) {
	s.estimator.Record(start, end, bits)
}

func (s *shadowAgent) ForceNextIFrame() { s.forceI = true }

func (s *shadowAgent) OnDetections(dets []detect.Detection) { s.lastDets = dets }

func (s *shadowAgent) LastDetections() []detect.Detection { return s.lastDets }

// trackLocally mirrors core.Agent.TrackLocally.
func (s *shadowAgent) trackLocally(field *mvfield.Field) {
	s.lastDets = core.TrackDetections(s.lastDets, field, float64(s.cfg.Width)/2, float64(s.cfg.Height)/2, s.cfg.Width, s.cfg.Height, s.cfg.Track)
}

// processFrame mirrors core.Agent.ProcessFrame for a rate-controlled agent
// (no CRF, no degradation ladder, rotation removal on), with a span under
// parent around each call into a layer. Of the result it fills what the frame
// loop reads: Encoded, RawField, Moving and Foreground. layers is the summed
// duration of the spans.
func (s *shadowAgent) processFrame(tr *tracer, parent int32, session, idx int, frame *imgx.Plane, now float64) (res *core.FrameResult, layers time.Duration, err error) {
	res = &core.FrameResult{}
	var sp int32
	begin := func(layer, name string) { sp = tr.begin(parent, layer, name, session, idx) }
	end := func() { layers += tr.end(sp) }

	cx, cy := float64(s.cfg.Width)/2, float64(s.cfg.Height)/2
	begin("codec", "motion")
	mf := s.enc.AnalyzeMotion(frame)
	end()
	if mf != nil {
		begin("mvfield", "field")
		field := mvfield.FromMotion(mf, s.cfg.Focal, cx, cy, 0)
		res.RawField = field
		res.Moving = field.Eta() > s.cfg.EtaThreshold
		end()
		if res.Moving {
			begin("mvfield", "rotation")
			if phiX, phiY, err := s.cfg.Rotation.Estimate(field, s.foeCal.FOE(), s.rng); err == nil {
				field = field.RemoveRotation(phiX, phiY)
			}
			end()
			begin("mvfield", "foe")
			if foe, err := mvfield.EstimateFOE(field, s.rng); err == nil {
				s.foeCal.Update(foe)
			}
			end()
			begin("core", "foreground")
			fg := core.ExtractForeground(field, s.foeCal.FOE(), s.cfg.Foreground)
			end()
			if fg != nil && !fg.Empty() {
				s.lastFG = fg
			}
		}
	}
	res.Foreground = s.lastFG

	begin("core", "ave")
	frac := 0.0
	var mask []bool
	if s.lastFG != nil {
		frac = s.lastFG.Fraction()
		mask = s.lastFG.Mask
	}
	delta := s.cfg.AVE.Delta(frac)
	mbw, mbh := s.enc.MBDims()
	s.qpOffsets = core.BuildQPOffsetsInto(s.qpOffsets, mask, mbw*mbh, delta)
	end()

	begin("netsim", "estimate")
	bw := s.estimator.EstimateAt(now)
	end()
	opts := codec.EncodeOptions{
		QPOffsets:         s.qpOffsets,
		ForceIFrame:       s.forceI,
		TargetBits:        s.cfg.AVE.TargetBits(bw, s.cfg.FPS),
		IFrameBudgetScale: s.cfg.AVE.IFrameBudgetScale,
	}
	begin("codec", "quantize")
	job, err := s.enc.AnalyzeAndQuantize(frame, opts)
	end()
	s.forceI = false
	if err != nil {
		return nil, 0, err
	}
	begin("codec", "emit")
	res.Encoded, err = s.enc.EmitBitstream(job)
	end()
	if err != nil {
		return nil, 0, err
	}
	return res, layers, nil
}

// replay runs the shadow over a frame the real agent has just encoded as ef,
// under a "shadow" span, and fails the frame unless the two bitstreams are
// byte-identical. It returns the glue: the real ProcessFrame's time less the
// shadow's layer spans, in milliseconds.
func (s *shadowAgent) replay(tr *tracer, session, idx int, frame *imgx.Plane, now float64, ef *codec.EncodedFrame, real time.Duration, chk *checker) (float64, error) {
	sp := tr.begin(0, "bench", "shadow", session, idx)
	res, layers, err := s.processFrame(tr, sp, session, idx, frame, now)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("frame %d: shadow: %w", idx, err)
	}
	if !bytes.Equal(res.Encoded.Data, ef.Data) {
		chk.fail("session %d frame %d: shadow decomposition bitstream differs from the agent's", session, idx)
	}
	return float64((real - layers).Nanoseconds()) / 1e6, nil
}
