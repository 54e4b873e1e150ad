package sim

import (
	"dive/internal/codec"
	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

// DiVE runs the full DiVE agent (differential encoding + adaptive bitrate +
// offline tracking) against the simulated edge.
type DiVE struct {
	// ConfigFn customizes the agent configuration after defaults are
	// applied; nil keeps the defaults.
	ConfigFn func(*core.AgentConfig)
	// DisableMOT turns off motion-vector-based offline tracking (the
	// Figure 13 ablation): outage frames then keep the stale cached
	// detections instead of tracking them forward.
	DisableMOT bool
	// KeepPayloads retains every frame's bitstream in Result.Payloads.
	KeepPayloads bool
	// FrameHook, when set, is called after each frame completes. Live servers
	// use it to pace the simulated run on the wall clock so followers see the
	// journal grow in real time.
	FrameHook func(i int)
}

// Name implements Scheme.
func (d *DiVE) Name() string {
	if d.DisableMOT {
		return "DiVE-noMOT"
	}
	return "DiVE"
}

// Run implements Scheme.
func (d *DiVE) Run(clip *world.Clip, link *netsim.Link, env *Env) (*Result, error) {
	if err := validateClip(clip); err != nil {
		return nil, err
	}
	cfg := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Seed = env.Seed
	if d.ConfigFn != nil {
		d.ConfigFn(&cfg)
	}
	agent, err := core.NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	// rec stitches the simulated edge's spans (send, decode, detect, ack)
	// onto the agent's trace and keeps its session histograms under the SLO
	// window's name. Nil keeps everything a no-op.
	rec, session := cfg.Obs, d.Name()
	decodeHist := rec.LabeledHistogram(obs.StageEdgeSessionDecode, obs.SessionLabel).With(session)
	detectHist := rec.LabeledHistogram(obs.StageEdgeSessionDetect, obs.SessionLabel).With(session)
	dec, err := codec.NewDecoder(cfg.Codec)
	if err != nil {
		return nil, err
	}

	n := clip.NumFrames()
	res := &Result{
		Scheme:        d.Name(),
		Detections:    make([][]detect.Detection, n),
		ResponseTimes: make([]float64, n),
		BitsSent:      make([]int, n),
		Uploaded:      make([]bool, n),
	}
	if d.KeepPayloads {
		res.Payloads = make([][]byte, n)
	}

	for i, frame := range clip.Frames {
		capture := float64(i) / clip.FPS
		fr, err := agent.ProcessFrame(frame, capture)
		if err != nil {
			return nil, err
		}
		if d.KeepPayloads {
			res.Payloads[i] = fr.Encoded.Data
		}
		// Keep the cached belief current: advance it by this frame's raw
		// flow, so an outage can start tracking from fresh boxes even if
		// the most recent server results flickered empty.
		if !d.DisableMOT {
			agent.TrackLocally(fr.RawField)
		}
		ready := capture + env.Lat.Encode
		// Head-of-queue timer: if the queued traffic will not drain within
		// the timeout, declare an outage and track locally (Section III-E).
		// The send is skipped, and the next frame forced intra before it is
		// analyzed: the dropped frame leaves the server decoder stale.
		queueDelay := link.QueueDelay(ready)
		outage := queueDelay > agent.OutageTimeout()
		if outage {
			agent.ForceNextIFrame()
			res.Detections[i] = agent.LastDetections()
			res.ResponseTimes[i] = env.Lat.Encode + env.Lat.Track
			agent.NoteOutageAt(fr.Encoded.Index, queueDelay, len(res.Detections[i]))
		} else {
			start, serialized, delivered := link.SendTraced(fr.Trace, ready, fr.Encoded.NumBits)
			agent.OnTransmitComplete(start, serialized, fr.Encoded.NumBits)
			res.BitsSent[i] = fr.Encoded.NumBits
			res.Uploaded[i] = true
			decodeSpan := rec.StartStageSpan(fr.Trace, "decode", "edge", decodeHist)
			decoded, err := dec.Decode(fr.Encoded.Data)
			decodeSpan.End()
			if err != nil {
				return nil, err
			}
			detectSpan := rec.StartStageSpan(fr.Trace, "detect", "edge", detectHist)
			dets, resultAt := ServerInference(env, decoded.Image, frame, clip.GT[i], delivered, env.Seed^int64(i*7919))
			detectSpan.End()
			// The downlink leg lives on the simulated clock: delivery of the
			// bitstream until the result lands back at the agent.
			rec.RecordSpan(fr.Trace, "ack", "edge", delivered, resultAt-delivered)
			if len(dets) > 0 || d.DisableMOT {
				agent.OnDetections(dets)
			}
			res.Detections[i] = dets
			res.ResponseTimes[i] = resultAt - capture
		}
		rec.ObserveSLO(session, obs.SLOSample{
			LatencySec: res.ResponseTimes[i], FGShare: fr.FGShare(), Outage: outage,
		})
		if d.FrameHook != nil {
			d.FrameHook(i)
		}
	}
	return res, nil
}
