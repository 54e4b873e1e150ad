// Package detect implements the simulated edge DNN detector.
//
// The paper measures AP of detections on degraded (compressed) video
// against detections on raw video. What a real detector contributes to that
// ratio is "an object survives iff its pixels survive compression", so the
// simulation computes, per ground-truth object, the actual local distortion
// the codec introduced (decoded vs pristine frame) and converts local PSNR
// and apparent size into detection probability, confidence and box jitter
// through a calibrated psychometric curve. Heavily distorted frames also
// produce occasional low-confidence false positives.
//
// All randomness is derived deterministically from the frame seed, so a
// given (clip, encoding) pair always yields identical detections.
package detect

import (
	"math"
	"math/rand"

	"dive/internal/imgx"
	"dive/internal/world"
)

// Detection is one detector output (or tracker output) box.
type Detection struct {
	Class   world.Class
	Box     imgx.Rect
	Score   float64
	Tracked bool // produced by local MV tracking rather than the edge DNN
}

// Config calibrates the quality-sensitivity of the simulated DNN.
type Config struct {
	// MinArea is the smallest detectable box area in pixels.
	MinArea int
	// BasePSNR is the local PSNR at which a 256-px² object is detected
	// with probability 0.5.
	BasePSNR float64
	// SizeSlopeDB lowers the required PSNR by this many dB per doubling of
	// object area (big objects survive compression better).
	SizeSlopeDB float64
	// WidthDB is the logistic width of the detection curve in dB.
	WidthDB float64
	// MaxPSNR caps local PSNR (lossless regions would otherwise be +Inf).
	MaxPSNR float64
	// JitterFrac scales box jitter: fraction of box size per (MaxPSNR -
	// psnr) dB of degradation.
	JitterFrac float64
	// FPRate is the expected number of false positives in a frame whose
	// average quality has degraded to BasePSNR.
	FPRate float64
	// InferLatency is the simulated DNN service time per frame in seconds.
	InferLatency float64
}

// DefaultConfig returns the calibration used across the experiments.
func DefaultConfig() Config {
	return Config{
		MinArea:      48,
		BasePSNR:     30,
		SizeSlopeDB:  2.8,
		WidthDB:      2.0,
		MaxPSNR:      50,
		JitterFrac:   0.004,
		FPRate:       0.8,
		InferLatency: 0.022,
	}
}

// Detector is the simulated edge DNN.
type Detector struct {
	cfg Config
}

// New creates a detector.
func New(cfg Config) *Detector { return &Detector{cfg: cfg} }

// Config returns the detector calibration.
func (d *Detector) Config() Config { return d.cfg }

// Scratch is what DetectInto and Proposals reuse from frame to frame: the
// generator, reseeded per frame, and the slice they return. One caller owns
// it; the Detector itself holds no state and is shared.
type Scratch struct {
	rng  *rand.Rand
	dets []Detection
}

// seed returns s's generator started on the stream NewSource(seed) starts.
func (s *Scratch) seed(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}

// Detect runs the simulated DNN on decoded, using pristine (the raw render)
// and its ground truth to evaluate what compression destroyed. frameSeed
// makes the stochastic decisions reproducible. The result is the caller's.
func (d *Detector) Detect(decoded, pristine *imgx.Plane, gt []world.GTBox, frameSeed int64) []Detection {
	return d.DetectInto(new(Scratch), decoded, pristine, gt, frameSeed)
}

// DetectInto is Detect on s's generator and slice: after the first call it
// allocates nothing, and its result is valid until the next DetectInto on s.
func (d *Detector) DetectInto(s *Scratch, decoded, pristine *imgx.Plane, gt []world.GTBox, frameSeed int64) []Detection {
	rng, out := s.seed(frameSeed^0x5EED), s.dets[:0]
	for _, obj := range gt {
		area := obj.Box.Area()
		if area < d.cfg.MinArea {
			continue
		}
		psnr := d.localPSNR(decoded, pristine, obj.Box)
		p := d.detectionProbability(psnr, area, obj.Visible)
		if rng.Float64() > p {
			continue
		}
		degrade := d.cfg.MaxPSNR - psnr
		jit := d.cfg.JitterFrac * degrade
		box := jitterBox(obj.Box, jit, rng)
		score := 0.55 + 0.45*p - 0.08*rng.Float64()
		out = append(out, Detection{
			Class: obj.Class,
			Box:   box.ClipTo(decoded.W, decoded.H),
			Score: clamp01(score),
		})
	}
	s.dets = d.falsePositives(out, decoded, pristine, rng)
	return s.dets
}

// Proposals returns low-confidence candidate regions, modeling the region
// proposals a two-stage DNN produces below its final detection threshold.
// Server-driven schemes (DDS) feed these back to the agent as the regions
// worth re-uploading in high quality: an object too degraded to *detect*
// still usually leaves enough evidence to *propose*. It runs on s's
// generator and slice like DetectInto: after the first call it allocates
// nothing, and its result is valid until the next call on s.
func (d *Detector) Proposals(s *Scratch, decoded, pristine *imgx.Plane, gt []world.GTBox, frameSeed int64) []Detection {
	rng, out := s.seed(frameSeed^0x9305), s.dets[:0]
	for _, obj := range gt {
		area := obj.Box.Area()
		if area < d.cfg.MinArea/2 {
			continue
		}
		psnr := d.localPSNR(decoded, pristine, obj.Box)
		p := d.detectionProbability(psnr, area, obj.Visible)
		// Proposals extend somewhat below the detection threshold but an
		// object whose pixels compression destroyed proposes nothing —
		// that blind spot is DDS's fundamental weakness at low bitrate.
		propP := clamp01(p * 1.8)
		if rng.Float64() > propP {
			continue
		}
		degrade := d.cfg.MaxPSNR - psnr
		box := jitterBox(obj.Box, d.cfg.JitterFrac*degrade*2, rng)
		out = append(out, Detection{
			Class: obj.Class,
			Box:   box.ClipTo(decoded.W, decoded.H),
			Score: 0.15 + 0.25*rng.Float64(),
		})
	}
	s.dets = out
	return out
}

// localPSNR measures the compression damage inside one box.
func (d *Detector) localPSNR(decoded, pristine *imgx.Plane, box imgx.Rect) float64 {
	mse := imgx.RegionMSE(decoded, pristine, box)
	psnr := imgx.PSNR(mse)
	if psnr > d.cfg.MaxPSNR {
		psnr = d.cfg.MaxPSNR
	}
	return psnr
}

// detectionProbability is the psychometric curve: probability that the DNN
// fires on an object of the given pixel area seen at the given local PSNR.
func (d *Detector) detectionProbability(psnr float64, area int, visible float64) float64 {
	need := d.cfg.BasePSNR - d.cfg.SizeSlopeDB*math.Log2(float64(area)/256)
	p := 1 / (1 + math.Exp(-(psnr-need)/d.cfg.WidthDB))
	// Partially occluded objects are harder at any quality.
	if visible < 1 {
		p *= 0.5 + 0.5*visible
	}
	return p
}

// falsePositives appends spurious low-score detections in badly degraded
// frames (compression artifacts that look like objects) to out.
func (d *Detector) falsePositives(out []Detection, decoded, pristine *imgx.Plane, rng *rand.Rand) []Detection {
	full := imgx.Rect{MinX: 0, MinY: 0, MaxX: decoded.W, MaxY: decoded.H}
	psnr := d.localPSNR(decoded, pristine, full)
	if psnr >= d.cfg.BasePSNR+6 {
		return out
	}
	sev := (d.cfg.BasePSNR + 6 - psnr) / 12
	lambda := d.cfg.FPRate * clamp01(sev)
	n := poisson(lambda, rng)
	for i := 0; i < n; i++ {
		w := 12 + rng.Intn(40)
		h := 12 + rng.Intn(40)
		x := rng.Intn(max(decoded.W-w, 1))
		y := rng.Intn(max(decoded.H-h, 1))
		class := world.ClassCar
		if rng.Intn(2) == 0 {
			class = world.ClassPedestrian
		}
		out = append(out, Detection{
			Class: class,
			Box:   imgx.NewRect(x, y, w, h),
			Score: 0.3 + 0.25*rng.Float64(),
		})
	}
	return out
}

// jitterBox perturbs a box's position and size by jit (fraction of its own
// dimensions per axis).
func jitterBox(box imgx.Rect, jit float64, rng *rand.Rand) imgx.Rect {
	w := float64(box.W())
	h := float64(box.H())
	dx := rng.NormFloat64() * jit * w
	dy := rng.NormFloat64() * jit * h
	dw := rng.NormFloat64() * jit * w
	dh := rng.NormFloat64() * jit * h
	return imgx.Rect{
		MinX: box.MinX + int(dx),
		MinY: box.MinY + int(dy),
		MaxX: box.MaxX + int(dx+dw),
		MaxY: box.MaxY + int(dy+dh),
	}
}

// poisson draws from a Poisson distribution via Knuth's method (small λ).
func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
