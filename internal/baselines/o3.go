package baselines

import (
	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/netsim"
	"dive/internal/sim"
	"dive/internal/world"
)

// O3 reproduces the O³ baseline: only key frames are uploaded (as intra
// frames, using the accumulated bandwidth budget of the whole key-frame
// interval), the edge detects on them, and all other frames reuse the cached
// key-frame results corrected by on-device MV tracking.
type O3 struct{}

// o3KeyInterval is the number of frames between O3's key frames.
const o3KeyInterval = 5

// Name implements sim.Scheme.
func (o *O3) Name() string { return "O3" }

// Run implements sim.Scheme.
func (o *O3) Run(clip *world.Clip, link *netsim.Link, env *sim.Env) (*sim.Result, error) {
	cfg := codec.DefaultConfig(clip.W, clip.H)
	cfg.GoPSize = 1 // every uploaded frame is standalone
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
	estimator := netsim.NewEstimator(0.5, netsim.Mbps(2))

	n := clip.NumFrames()
	res := &sim.Result{
		Scheme:        o.Name(),
		Detections:    make([][]detect.Detection, n),
		ResponseTimes: make([]float64, n),
		BitsSent:      make([]int, n),
		Uploaded:      make([]bool, n),
	}
	var cached []detect.Detection
	arrivals := newResultQueue(clip.W, clip.H)
	for i, frame := range clip.Frames {
		capture := float64(i) / clip.FPS
		field, err := me.step(frame)
		if err != nil {
			return nil, err
		}
		// Server results arrive one round trip after their key frame was
		// captured; correct the tracked cache only then, replaying the
		// intervening motion so the stale boxes catch up.
		if fresh, ok := arrivals.collect(capture, field); ok {
			cached = fresh
		}
		if i%o3KeyInterval != 0 {
			// Tracked frame: correct cached results with local MVs.
			cached = trackForward(cached, field, clip.W, clip.H)
			res.Detections[i] = cached
			res.ResponseTimes[i] = env.Lat.Track
			continue
		}
		// Key frame: spend the whole interval's bit budget on quality.
		bw := estimator.EstimateAt(capture)
		budget := int(bw * 0.9 * o3KeyInterval / clip.FPS)
		ef, err := enc.Encode(frame, codec.EncodeOptions{TargetBits: budget, ForceIFrame: true})
		if err != nil {
			return nil, err
		}
		ready := capture + env.Lat.Encode
		start, serialized, delivered := link.Send(ready, ef.NumBits)
		estimator.Record(start, serialized, ef.NumBits)
		res.BitsSent[i] = ef.NumBits
		res.Uploaded[i] = true

		decoded, err := dec.Decode(ef.Data)
		if err != nil {
			return nil, err
		}
		dets, resultAt := sim.ServerInference(env, decoded.Image, frame, clip.GT[i], delivered, env.Seed^int64(i*7919))
		arrivals.push(dets, resultAt)
		res.Detections[i] = dets
		res.ResponseTimes[i] = resultAt - capture
	}
	return res, nil
}
