// Package dive is the public API of the DiVE reproduction: differential
// video encoding for online edge-assisted video analytics on mobile agents
// (ICDCS 2025).
//
// A DiVE Agent consumes raw camera frames and produces differentially
// encoded bitstreams: it reuses the motion vectors its video codec computes
// anyway to judge its own motion, remove the rotational flow component,
// segment ground / background / foreground, and then encodes the foreground
// sharp while crushing the background just enough for the stream to fit the
// estimated uplink bandwidth. During link outages it advances cached
// detections locally with the same motion vectors.
//
// Minimal use:
//
//	agent, err := dive.NewAgent(dive.Config{
//		Width: 320, Height: 192, FPS: 12, FocalPx: 250,
//	})
//	...
//	out, err := agent.Process(frame, now) // frame is a *dive.Frame
//	send(out.Bitstream)                   // ship to the edge
//	agent.AckUplink(start, end, len(out.Bitstream)*8)
//
// The internal packages contain the full system: the synthetic driving
// world, the macroblock codec, the geometry stages, the simulated edge
// detector, the network simulator, the baselines (O3, EAAR, DDS) and the
// experiment harness that regenerates every table and figure of the paper.
package dive

import (
	"fmt"
	"io"
	"net/http"

	"dive/internal/codec"
	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/netsim"
	"dive/internal/obs"
)

// Frame is an 8-bit luma image. Pix is row-major, W*H bytes.
type Frame = imgx.Plane

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame { return imgx.NewPlane(w, h) }

// Detection is one detected (or locally tracked) object box.
type Detection = detect.Detection

// Config configures a DiVE agent. Zero fields take defaults.
type Config struct {
	// Width and Height are the frame dimensions (multiples of 16).
	Width, Height int
	// FPS is the capture rate.
	FPS float64
	// FocalPx is the camera focal length in pixels; a rough calibration
	// suffices.
	FocalPx float64
	// MEMethod selects the codec's motion estimation search ("dia",
	// "hex", "umh", "tesa", "esa"); empty selects "hex", the paper's
	// choice.
	MEMethod string
	// GoPSize is the I-frame interval (default 96).
	GoPSize int
	// EtaThreshold is the moving/static decision threshold on the
	// non-zero motion vector ratio (default 0.15).
	EtaThreshold float64
	// FixedDelta, when positive, disables the adaptive foreground /
	// background QP delta and uses this constant instead.
	FixedDelta int
	// BandwidthPriorBps seeds the uplink estimator before any feedback
	// (default 2 Mbps).
	BandwidthPriorBps float64
	// Seed drives all randomized components (RANSAC); same seed, same
	// behaviour.
	Seed int64
	// Telemetry enables the observability subsystem: per-stage timing
	// histograms, frame-lifecycle records (the last 1024 frames) and
	// rate-control internals, queryable via Snapshot, WriteFrameTrace and
	// TelemetryHandler. Off it costs nothing; on it costs a few clock reads
	// per frame.
	Telemetry bool
}

// Output is the result of processing one frame.
type Output struct {
	// Bitstream is the encoded frame to ship to the edge server.
	Bitstream []byte
	// Bits is the exact payload size in bits (Bitstream is padded to
	// bytes).
	Bits int
	// IsIFrame reports whether the frame was intra-coded.
	IsIFrame bool
	// BaseQP is the frame-level quantizer rate control selected.
	BaseQP int
	// Eta is the non-zero motion-vector ratio (the ego-motion signal).
	Eta float64
	// Moving is the agent's ego-motion judgement.
	Moving bool
	// ForegroundFraction is the share of macroblocks kept at full quality.
	ForegroundFraction float64
	// ForegroundRegions are the pixel bounding boxes of extracted
	// foreground objects.
	ForegroundRegions []Region
	// Delta is the background QP offset applied.
	Delta int
	// EstimatedBandwidthBps is the uplink estimate used for rate control.
	EstimatedBandwidthBps float64
	// RotationPitch and RotationYaw are the removed per-frame rotation
	// increments in radians (0 when not estimated).
	RotationPitch, RotationYaw float64
	// TraceID identifies the frame's end-to-end causal trace; the transport
	// should carry it (and SpanID as the remote parent) to the edge so
	// server-side spans stitch into the agent's trace. Zero without
	// Config.Telemetry.
	TraceID uint64
	// SpanID is the frame's root span, the parent for remote spans.
	SpanID uint64
}

// FrameTypeString returns "I" for intra frames and "P" otherwise.
func (o *Output) FrameTypeString() string {
	if o.IsIFrame {
		return "I"
	}
	return "P"
}

// Region is a pixel-space rectangle; Min is inclusive, Max exclusive.
type Region struct {
	MinX, MinY, MaxX, MaxY int
}

// Agent is a DiVE mobile agent.
type Agent struct {
	inner *core.Agent
	rec   *obs.Recorder // nil unless Config.Telemetry
}

// NewAgent validates cfg and creates an agent.
func NewAgent(cfg Config) (*Agent, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("dive: frame size must be positive")
	}
	if cfg.FPS <= 0 {
		return nil, fmt.Errorf("dive: FPS must be positive")
	}
	if cfg.FocalPx <= 0 {
		return nil, fmt.Errorf("dive: focal length must be positive")
	}
	ac := core.DefaultAgentConfig(cfg.Width, cfg.Height, cfg.FPS, cfg.FocalPx)
	if cfg.MEMethod != "" {
		m, ok := codec.ParseMEMethod(cfg.MEMethod)
		if !ok {
			return nil, fmt.Errorf("dive: unknown motion estimation method %q", cfg.MEMethod)
		}
		ac.Codec.Method = m
	}
	if cfg.GoPSize > 0 {
		ac.Codec.GoPSize = cfg.GoPSize
	}
	if cfg.EtaThreshold > 0 {
		ac.EtaThreshold = cfg.EtaThreshold
	}
	ac.AVE.FixedDelta = cfg.FixedDelta
	if cfg.BandwidthPriorBps > 0 {
		ac.BandwidthPrior = cfg.BandwidthPriorBps
	}
	if cfg.Seed != 0 {
		ac.Seed = cfg.Seed
	}
	var rec *obs.Recorder
	if cfg.Telemetry {
		rec = obs.NewRecorder(0)
		ac.Obs = rec
	}
	inner, err := core.NewAgent(ac)
	if err != nil {
		return nil, err
	}
	return &Agent{inner: inner, rec: rec}, nil
}

// Process runs the DiVE pipeline on one captured frame. now is the capture
// time in seconds on any monotonic clock shared with AckUplink.
func (a *Agent) Process(frame *Frame, now float64) (*Output, error) {
	res, err := a.inner.ProcessFrame(frame, now)
	if err != nil {
		return nil, err
	}
	return outputFromResult(res), nil
}

// outputFromResult converts the internal frame result to the public Output.
func outputFromResult(res *core.FrameResult) *Output {
	out := &Output{
		Bitstream:             res.Encoded.Data,
		Bits:                  res.Encoded.NumBits,
		IsIFrame:              res.Encoded.Type == codec.IFrame,
		BaseQP:                res.Encoded.BaseQP,
		Eta:                   res.Eta,
		Moving:                res.Moving,
		Delta:                 res.Delta,
		EstimatedBandwidthBps: res.EstimatedBandwidth,
		TraceID:               res.Trace.TraceID,
		SpanID:                res.Trace.SpanID,
	}
	if res.Rotation.OK {
		out.RotationPitch = res.Rotation.PhiX
		out.RotationYaw = res.Rotation.PhiY
	}
	if res.Foreground != nil {
		out.ForegroundFraction = res.Foreground.Fraction()
		for _, obj := range res.Foreground.Objects {
			out.ForegroundRegions = append(out.ForegroundRegions, Region{
				MinX: obj.BBox.MinX, MinY: obj.BBox.MinY,
				MaxX: obj.BBox.MaxX, MaxY: obj.BBox.MaxY,
			})
		}
	}
	return out
}

// AckUplink reports transport feedback: bits were serialized onto the
// uplink during [start, end] seconds. The bandwidth estimator drives the
// next frames' rate control.
func (a *Agent) AckUplink(start, end float64, bits int) {
	a.inner.OnTransmitComplete(start, end, bits)
}

// CacheDetections stores the newest edge results for outage tracking.
func (a *Agent) CacheDetections(dets []Detection) { a.inner.OnDetections(dets) }

// ForceNextIFrame makes the next encoded frame intra-coded; call it after
// dropping frames so the remote decoder can resynchronize.
func (a *Agent) ForceNextIFrame() { a.inner.ForceNextIFrame() }

// Snapshot returns the agent's telemetry as JSON: counters (frames, bits,
// I-frames), gauges (η, foreground fraction, bandwidth estimate) and
// per-stage latency histograms with p50/p95/p99. It fails unless
// Config.Telemetry was set.
func (a *Agent) Snapshot() ([]byte, error) {
	if a.rec == nil {
		return nil, fmt.Errorf("dive: telemetry not enabled (set Config.Telemetry)")
	}
	return a.rec.SnapshotJSON()
}

// WriteFrameTrace writes the retained frame-lifecycle records as JSONL
// (one frame per line, oldest first) — the same schema divetrace -format jsonl
// emits. It fails unless Config.Telemetry was set.
func (a *Agent) WriteFrameTrace(w io.Writer) error {
	if a.rec == nil {
		return fmt.Errorf("dive: telemetry not enabled (set Config.Telemetry)")
	}
	return obs.WriteJSONL(w, a.rec.FrameRecords())
}

// WriteJournal writes the retained decision-journal records as JSONL (one
// frame per line, oldest first) — the inputs and outputs of every pipeline
// decision, the format divedoctor ingests. It fails unless Config.Telemetry
// was set.
func (a *Agent) WriteJournal(w io.Writer) error {
	if a.rec == nil {
		return fmt.Errorf("dive: telemetry not enabled (set Config.Telemetry)")
	}
	return a.rec.Journal().WriteJSONL(w)
}

// WriteSpans writes the retained trace spans as JSONL (oldest first): the
// per-stage spans of each frame's end-to-end trace. It fails unless
// Config.Telemetry was set.
func (a *Agent) WriteSpans(w io.Writer) error {
	if a.rec == nil {
		return fmt.Errorf("dive: telemetry not enabled (set Config.Telemetry)")
	}
	return a.rec.Spans().WriteJSONL(w)
}

// TelemetryHandler returns the agent's live introspection HTTP handler
// (/metrics in Prometheus text format, /debug/vars, /debug/frames,
// /debug/journal, /debug/spans, /debug/pprof/). Without Config.Telemetry it
// returns a handler that answers 503 on every path.
func (a *Agent) TelemetryHandler() http.Handler { return a.rec.Handler() }

// Decoder reconstructs frames from Agent bitstreams — the edge-server side.
// It recycles its picture buffers, so decoding allocates nothing per frame;
// see Decode for how long a returned Frame stays valid.
type Decoder struct {
	inner *codec.Decoder
}

// NewDecoder creates a decoder for w×h streams.
func NewDecoder(w, h int) (*Decoder, error) {
	d, err := codec.NewDecoder(codec.DefaultConfig(w, h))
	if err != nil {
		return nil, err
	}
	return &Decoder{inner: d}, nil
}

// Decode parses one frame bitstream and returns the reconstructed image.
// The Frame belongs to the Decoder and is valid until the next Decode call;
// Clone it to keep it longer. A bitstream that fails to decode leaves the
// decoder's state as it was.
func (d *Decoder) Decode(bitstream []byte) (*Frame, error) {
	df, err := d.inner.Decode(bitstream)
	if err != nil {
		return nil, err
	}
	return df.Image, nil
}

// Mbps converts megabits per second to bits per second, a convenience for
// Config.BandwidthPriorBps.
func Mbps(v float64) float64 { return netsim.Mbps(v) }
