package baselines

import (
	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/netsim"
	"dive/internal/sim"
	"dive/internal/world"
)

// EAAR reproduces the EAAR baseline: key frames are streamed with
// ROI-based differential encoding where the ROI comes from the cached
// (tracked) previous detections — QP 30 inside the ROI, QP 40 outside, the
// paper's stated defaults — and inference runs in parallel with streaming.
// Non-key frames are tracked locally. Fixed QPs mean no bitrate adaptation:
// under tight uplinks the transmit queue grows and results arrive stale.
type EAAR struct{}

// EAAR's operating point.
const (
	// eaarKeyInterval is the number of frames between uploaded key frames.
	eaarKeyInterval = 4
	// eaarROIQP and eaarBackgroundQP are the quantizers inside and outside
	// the ROI (30 / 40 in the paper).
	eaarROIQP, eaarBackgroundQP = 30, 40
	// eaarDilatePx grows cached boxes into the ROI to tolerate motion.
	eaarDilatePx = 12
)

// Name implements sim.Scheme.
func (e *EAAR) Name() string { return "EAAR" }

// Run implements sim.Scheme.
func (e *EAAR) Run(clip *world.Clip, link *netsim.Link, env *sim.Env) (*sim.Result, error) {
	cfg := codec.DefaultConfig(clip.W, clip.H)
	cfg.GoPSize = 1
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	dec, err := codec.NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	me, err := newOnDeviceME(clip.W, clip.H, clip.Focal)
	if err != nil {
		return nil, err
	}

	n := clip.NumFrames()
	res := &sim.Result{
		Scheme:        e.Name(),
		Detections:    make([][]detect.Detection, n),
		ResponseTimes: make([]float64, n),
		BitsSent:      make([]int, n),
		Uploaded:      make([]bool, n),
	}
	mbw, mbh := enc.MBDims()
	var cached []detect.Detection
	arrivals := newResultQueue(clip.W, clip.H)
	for i, frame := range clip.Frames {
		capture := float64(i) / clip.FPS
		field, err := me.step(frame)
		if err != nil {
			return nil, err
		}
		// Key-frame results correct the cache only once they arrive (one
		// round trip after capture), replayed through the motion since.
		if fresh, ok := arrivals.collect(capture, field); ok {
			cached = fresh
		}
		cached = trackForward(cached, field, clip.W, clip.H)
		if i%eaarKeyInterval != 0 {
			res.Detections[i] = cached
			res.ResponseTimes[i] = env.Lat.Track
			continue
		}
		// ROI map from the cached (tracked) detections. With no cached
		// results yet (cold start, or everything lost) — and periodically
		// as a refresh, so objects the ROI never covered get a chance to
		// bootstrap — stream the whole frame at ROI quality.
		var offsets []int
		refresh := (i/eaarKeyInterval)%8 == 7
		if len(cached) > 0 && !refresh {
			boxes := make([]imgx.Rect, len(cached))
			for k, d := range cached {
				boxes[k] = d.Box
			}
			offsets = regionOffsets(boxes, mbw, mbh, eaarDilatePx, eaarBackgroundQP-eaarROIQP)
		}
		ef, err := enc.Encode(frame, codec.EncodeOptions{
			BaseQP: eaarROIQP, QPOffsets: offsets, ForceIFrame: true,
		})
		if err != nil {
			return nil, err
		}
		ready := capture + env.Lat.Encode
		_, _, delivered := link.Send(ready, ef.NumBits)
		res.BitsSent[i] = ef.NumBits
		res.Uploaded[i] = true

		decoded, err := dec.Decode(ef.Data)
		if err != nil {
			return nil, err
		}
		dets, resultAt := sim.ServerInference(env, decoded.Image, frame, clip.GT[i], delivered, env.Seed^int64(i*104729))
		arrivals.push(dets, resultAt)
		res.Detections[i] = dets
		res.ResponseTimes[i] = resultAt - capture
	}
	return res, nil
}
