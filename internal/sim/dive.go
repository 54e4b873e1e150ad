package sim

import (
	"dive/internal/codec"
	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/imgx"
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
	// PipelineDepth >= 2 overlaps frame N+1's analysis with frame N's entropy
	// coding and delivery (core.Agent.ProcessStream); <= 1 runs the same
	// stages inline, one frame at a time. The simulated results — bitstreams,
	// detections, response times, journal — are identical at every depth;
	// only wall-clock throughput changes.
	PipelineDepth int
	// KeepPayloads retains every frame's bitstream in Result.Payloads.
	KeepPayloads bool
	// Session names the stream for per-session observability (SLO windows,
	// labeled metrics); empty uses Name(). Only meaningful with telemetry
	// enabled on the agent configuration.
	Session string
	// FrameHook, when set, is called after each frame's delivery completes
	// (in frame order). Live servers use it to pace the simulated run on
	// the wall clock so followers see the journal grow in real time.
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
	session := d.Session
	if session == "" {
		session = d.Name()
	}
	cfg.Session = session
	if d.ConfigFn != nil {
		d.ConfigFn(&cfg)
	}
	agent, err := core.NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	// rec stitches the simulated-edge side of each frame's trace (send,
	// decode, detect, ack spans on the simulated clock) onto the context the
	// agent minted at capture. Nil keeps everything a no-op.
	rec := cfg.Obs
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

	// The one DiVE frame loop, written on ProcessStream's three stages; at
	// depth <= 1 they run inline, one frame after the other. Placement is what
	// keeps every depth identical:
	//
	//   - Stage B (analysis order): the outage decision and the uplink send.
	//     Both read and advance serially-ordered state — the link queue, the
	//     bandwidth estimator, the next-frame ForceNextIFrame flag — that the
	//     NEXT frame's analysis or send must observe, so they run before frame
	//     N+1's analysis.
	//   - Stage C (delivery order): local tracking, decode, detection and the
	//     detection cache. The lastDets sequence (TrackLocally then
	//     OnDetections, per frame) is confined to this single stage, so its
	//     interleaving is the same even though stage B of later frames may run
	//     concurrently.
	//
	// Nothing the encoder consumes depends on stage C, which is why bitstreams
	// are byte-identical at every depth; everything the Result records rides
	// the simulated clock and serially-ordered state, which is why detections
	// and response times are identical too.
	type frameState struct {
		outage     bool
		queueDelay float64
		delivered  float64
	}
	states := make([]frameState, n)

	_, err = agent.ProcessStream(n, d.PipelineDepth,
		func(i int) (*imgx.Plane, float64) {
			return clip.Frames[i], float64(i) / clip.FPS
		},
		func(i int, fr *core.FrameResult) error {
			st := &states[i]
			ready := float64(i)/clip.FPS + env.Lat.Encode
			// Head-of-queue timer: if the queued traffic will not drain
			// within the timeout, declare an outage and track locally
			// (Section III-E).
			if link.QueueDelay(ready) > agent.OutageTimeout() {
				// Skip the send and force the next frame intra before that
				// frame is analyzed: the dropped frame leaves the server
				// decoder stale. The tracked-box count is only known at
				// delivery, so the outage is journaled there — by frame,
				// not "last": later frames may have been journaled by then.
				st.outage = true
				st.queueDelay = link.QueueDelay(ready)
				agent.ForceNextIFrame()
				return nil
			}
			start, serialized, delivered := link.SendTraced(fr.Trace, ready, fr.Encoded.NumBits)
			agent.OnTransmitComplete(start, serialized, fr.Encoded.NumBits)
			st.delivered = delivered
			res.BitsSent[i] = fr.Encoded.NumBits
			res.Uploaded[i] = true
			return nil
		},
		func(i int, fr *core.FrameResult) error {
			if d.KeepPayloads {
				res.Payloads[i] = fr.Encoded.Data
			}
			// Keep the cached belief current: advance it by this frame's raw
			// flow, so an outage can start tracking from fresh boxes even if
			// the most recent server results flickered empty.
			if !d.DisableMOT {
				agent.TrackLocally(fr.RawField)
			}
			st := &states[i]
			capture := float64(i) / clip.FPS
			if st.outage {
				res.Detections[i] = agent.LastDetections()
				res.ResponseTimes[i] = env.Lat.Encode + env.Lat.Track
				agent.NoteOutageAt(fr.Encoded.Index, st.queueDelay, len(res.Detections[i]))
				rec.ObserveSLO(session, obs.SLOSample{
					LatencySec: res.ResponseTimes[i], FGShare: fgShare(fr), Outage: true,
				})
				if d.FrameHook != nil {
					d.FrameHook(i)
				}
				return nil
			}
			decodeSpan := rec.StartStageSpan(fr.Trace, "decode", "edge", obs.StageEdgeDecode)
			decoded, err := dec.Decode(fr.Encoded.Data)
			decodeSpan.End()
			if err != nil {
				return err
			}
			detectSpan := rec.StartStageSpan(fr.Trace, "detect", "edge", obs.StageEdgeDetect)
			dets, resultAt := ServerInference(env, decoded.Image, clip.Frames[i], clip.GT[i], st.delivered, env.Seed^int64(i*7919))
			detectSpan.End()
			// The downlink leg lives on the simulated clock: delivery of the
			// bitstream until the result lands back at the agent.
			rec.RecordSpan(fr.Trace, "ack", "edge", st.delivered, resultAt-st.delivered)
			if len(dets) > 0 || d.DisableMOT {
				agent.OnDetections(dets)
			}
			res.Detections[i] = dets
			res.ResponseTimes[i] = resultAt - capture
			rec.ObserveSLO(session, obs.SLOSample{
				LatencySec: res.ResponseTimes[i], FGShare: fgShare(fr),
			})
			if d.FrameHook != nil {
				d.FrameHook(i)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fgShare is the SLO accuracy proxy for one frame: the foreground fraction
// the encoder protected (0 when no foreground was ever extracted).
func fgShare(fr *core.FrameResult) float64 {
	if fr.Foreground == nil {
		return 0
	}
	return fr.Foreground.Fraction()
}
