// Package sim runs end-to-end edge-analytics experiments: a video analytics
// scheme (DiVE or a baseline) processes a rendered clip frame by frame,
// ships bits over a simulated uplink, receives detections from a simulated
// edge server, and reports per-frame detections plus response times — the
// two metrics of the paper's Section IV.
package sim

import (
	"fmt"

	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/netsim"
	"dive/internal/world"
)

// Latencies models the fixed processing delays of the pipeline stages in
// seconds. They stand in for the paper's measured hardware times so that
// simulated response times are deterministic.
type Latencies struct {
	// Encode is the agent-side per-frame cost: motion analysis, foreground
	// extraction and entropy coding.
	Encode float64
	// Track is the agent-side cost of local MV tracking for one frame.
	Track float64
	// Decode is the server-side decode cost per frame.
	Decode float64
	// Infer is the DNN inference cost per frame.
	Infer float64
	// Downlink is the result-return latency.
	Downlink float64
}

// DefaultLatencies returns dashcam-class agent and GPU-server numbers.
func DefaultLatencies() Latencies {
	return Latencies{
		Encode:   0.014,
		Track:    0.002,
		Decode:   0.004,
		Infer:    0.022,
		Downlink: 0.006,
	}
}

// Env bundles everything schemes share in one experiment run. One goroutine
// uses an Env at a time: its detector runs on one scratch.
type Env struct {
	Detector *detect.Detector
	Lat      Latencies
	// Seed decorrelates stochastic detector decisions across runs.
	Seed    int64
	scratch detect.Scratch
}

// NewEnv builds a default environment.
func NewEnv(seed int64) *Env {
	return &Env{
		Detector: detect.New(detect.DefaultConfig()),
		Lat:      DefaultLatencies(),
		Seed:     seed,
	}
}

// Result is the outcome of one (scheme, clip, link) run.
type Result struct {
	Scheme string
	// Detections[i] is what the agent holds for frame i once its result is
	// final (server response or local tracking).
	Detections [][]detect.Detection
	// ResponseTimes[i] is capture-to-result latency for frame i, seconds.
	ResponseTimes []float64
	// BitsSent[i] is the uplink payload attributable to frame i.
	BitsSent []int
	// Uploaded[i] reports whether frame i reached the server.
	Uploaded []bool
	// Payloads[i] is frame i's encoded bitstream, retained only when the
	// scheme was asked to keep them (determinism checks, replay).
	Payloads [][]byte
}

// TotalBits sums the uplink payload of the run.
func (r *Result) TotalBits() int {
	s := 0
	for _, b := range r.BitsSent {
		s += b
	}
	return s
}

// Scheme is one video-analytics system under test.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Run processes the clip over the link and returns per-frame results.
	// Implementations must not retain the clip or link.
	Run(clip *world.Clip, link *netsim.Link, env *Env) (*Result, error)
}

// OracleDetections runs the simulated DNN on the raw frames — the paper's
// ground truth ("the object detection results of raw frames at the edge
// server").
func OracleDetections(clip *world.Clip, env *Env) [][]detect.Detection {
	out := make([][]detect.Detection, clip.NumFrames())
	for i, frame := range clip.Frames {
		out[i] = env.detect(frame, frame, clip.GT[i], env.Seed^int64(i*2654435761))
	}
	return out
}

// ServerInference models the edge server on one delivered frame: decode +
// DNN inference + downlink, returning the detections and the time the
// result reaches the agent. Schemes in other packages share it so every
// system sees the identical server.
func ServerInference(env *Env, decoded *imgx.Plane, pristine *imgx.Plane, gt []world.GTBox, deliveredAt float64, frameSeed int64) ([]detect.Detection, float64) {
	dets := env.detect(decoded, pristine, gt, frameSeed)
	return dets, deliveredAt + env.Lat.Decode + env.Lat.Infer + env.Lat.Downlink
}

// detect runs the detector on env's scratch and returns a copy, which the
// caller keeps.
func (env *Env) detect(decoded, pristine *imgx.Plane, gt []world.GTBox, frameSeed int64) []detect.Detection {
	return append([]detect.Detection(nil), env.Detector.DetectInto(&env.scratch, decoded, pristine, gt, frameSeed)...)
}

// validateClip guards schemes against malformed inputs.
func validateClip(clip *world.Clip) error {
	if clip == nil || clip.NumFrames() == 0 {
		return fmt.Errorf("sim: empty clip")
	}
	if clip.FPS <= 0 {
		return fmt.Errorf("sim: clip FPS must be positive")
	}
	return nil
}
