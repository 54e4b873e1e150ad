package baselines

import (
	"math/rand"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/netsim"
	"dive/internal/sim"
	"dive/internal/world"
)

// DDS reproduces the DDS baseline (server-driven video streaming): each
// frame is first uploaded in low quality; the server detects on it and
// feeds the candidate regions back; the agent then re-uploads those regions
// in high quality and the server re-runs inference on the patched frame.
// Accuracy is good — the regions that matter eventually arrive sharp — but
// every frame pays two uplink trips plus two inferences, so response time
// is the worst of the field, exactly the trade-off the paper reports.
//
// The low-quality passes form a normal P-frame chain; region re-uploads
// are standalone intra patches (like the crop re-uploads of the real
// system), so the two flows are independent and the agent keeps streaming
// phase-1 frames while feedback for earlier frames is in flight.
type DDS struct {
	// onPatch, when set, sees each phase-2 patch's bitstream as it is
	// queued (flushed false) and as it is decoded (flushed true).
	onPatch func(idx int, data []byte, flushed bool)
}

// Name implements sim.Scheme.
func (d *DDS) Name() string { return "DDS" }

// DDS's operating point.
const (
	// ddsPhase1Frac is the share of the per-frame bit budget spent on the
	// low-quality pass.
	ddsPhase1Frac = 0.45
	// ddsFeedbackScore is the phase-1 confidence below which a detection's
	// region is re-requested; confident detections are kept as-is.
	ddsFeedbackScore = 0.85
	// ddsDilatePx grows feedback regions before re-encoding.
	ddsDilatePx = 10
)

// phase2Job is a pending region re-upload.
type phase2Job struct {
	idx     int
	ready   float64 // when the patch can be enqueued (feedback + encode)
	bits    int
	data    []byte
	regions []imgx.Rect
	lowImg  *imgx.Plane // server-side phase-1 reconstruction
}

// Run implements sim.Scheme.
func (d *DDS) Run(clip *world.Clip, link *netsim.Link, env *sim.Env) (*sim.Result, error) {
	cfg := codec.DefaultConfig(clip.W, clip.H)
	cfg.GoPSize = 1 << 30 // phase-1 stream: one I-frame, then P-chain
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	dec, err := codec.NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	// Patch encoder: every phase-2 payload is a standalone intra frame of
	// the requested regions (background crushed to QP 51 — a few bits per
	// macroblock — mirroring the crop uploads of the real system).
	patchCfg := cfg
	patchCfg.GoPSize = 1
	patchEnc, err := codec.NewEncoder(patchCfg)
	if err != nil {
		return nil, err
	}
	estimator := netsim.NewEstimator(0.5, netsim.Mbps(2))

	n := clip.NumFrames()
	res := &sim.Result{
		Scheme:        d.Name(),
		Detections:    make([][]detect.Detection, n),
		ResponseTimes: make([]float64, n),
		BitsSent:      make([]int, n),
		Uploaded:      make([]bool, n),
	}
	mbw, mbh := enc.MBDims()

	var props detect.Scratch // the proposals' generator and slice, reused every frame
	var pending []phase2Job
	// flush transmits and evaluates every pending patch that becomes ready
	// before `until`, so phase-1 and phase-2 traffic interleave on the
	// link in ready order.
	flush := func(until float64) error {
		for len(pending) > 0 && pending[0].ready <= until {
			job := pending[0]
			pending = pending[1:]
			if d.onPatch != nil {
				d.onPatch(job.idx, job.data, true)
			}
			s2, ser2, delivered2 := link.Send(job.ready, job.bits)
			estimator.Record(s2, ser2, job.bits)
			pdec, derr := codec.NewDecoder(patchCfg)
			if derr != nil {
				return derr
			}
			patch, derr := pdec.Decode(job.data)
			if derr != nil {
				return derr
			}
			merged := mergeRegions(job.lowImg, patch.Image, job.regions, ddsDilatePx)
			dets2, resultAt := sim.ServerInference(env, merged, clip.Frames[job.idx], clip.GT[job.idx], delivered2, env.Seed^int64(job.idx*27644437))
			res.BitsSent[job.idx] += job.bits
			res.Detections[job.idx] = dets2
			res.ResponseTimes[job.idx] = resultAt - float64(job.idx)/clip.FPS
		}
		return nil
	}

	for i, frame := range clip.Frames {
		capture := float64(i) / clip.FPS
		ready1 := capture + env.Lat.Encode
		if err := flush(ready1); err != nil {
			return nil, err
		}
		bw := estimator.EstimateAt(capture)
		budget := int(bw * 0.85 / clip.FPS)

		// Phase 1: whole frame, low quality, part of the P-chain.
		ef1, err := enc.Encode(frame, codec.EncodeOptions{
			TargetBits:        int(float64(budget) * ddsPhase1Frac),
			IFrameBudgetScale: 3,
		})
		if err != nil {
			return nil, err
		}
		s1, ser1, delivered1 := link.Send(ready1, ef1.NumBits)
		estimator.Record(s1, ser1, ef1.NumBits)
		res.BitsSent[i] = ef1.NumBits
		res.Uploaded[i] = true

		dec1, err := dec.Decode(ef1.Data)
		if err != nil {
			return nil, err
		}
		dets1, feedbackAt := sim.ServerInference(env, dec1.Image, frame, clip.GT[i], delivered1, env.Seed^int64(i*31337))

		// Server feedback: uncertain regions — low-confidence detections
		// plus sub-threshold region proposals.
		var regions []imgx.Rect
		for _, dt := range dets1 {
			if dt.Score < ddsFeedbackScore {
				regions = append(regions, dt.Box)
			}
		}
		for _, pr := range env.Detector.Proposals(&props, dec1.Image, frame, clip.GT[i], env.Seed^int64(i*611953)) {
			regions = append(regions, pr.Box)
		}
		if len(regions) == 0 {
			// A region-proposal network always produces candidates, even
			// on background; model that with deterministic probe regions
			// so DDS pays its second trip on every frame, as the paper
			// describes.
			rng := rand.New(rand.NewSource(env.Seed ^ int64(i*5915587277)))
			for k := 0; k < 2; k++ {
				w := 24 + rng.Intn(32)
				h := 20 + rng.Intn(24)
				x := rng.Intn(maxi(clip.W-w, 1))
				y := rng.Intn(maxi(clip.H-h, 1))
				regions = append(regions, imgx.NewRect(x, y, w, h))
			}
		}

		// Phase 2: standalone intra patch of the regions, spending the
		// rest of the frame budget.
		// +51 outside the regions: the background of a patch is never used.
		offsets := regionOffsets(regions, mbw, mbh, ddsDilatePx, 51)
		phase2Budget := budget - ef1.NumBits
		if phase2Budget < budget/4 {
			phase2Budget = budget / 4
		}
		ef2, err := patchEnc.Encode(frame, codec.EncodeOptions{
			TargetBits: phase2Budget, QPOffsets: offsets, ForceIFrame: true,
		})
		if err != nil {
			return nil, err
		}
		pending = append(pending, phase2Job{
			idx:     i,
			ready:   feedbackAt + env.Lat.Encode,
			bits:    ef2.NumBits,
			data:    ef2.Clone().Data, // outlives the next patchEnc.Encode
			regions: regions,
			lowImg:  dec1.Image.Clone(), // outlives the next dec.Decode
		})
		if d.onPatch != nil {
			d.onPatch(i, pending[len(pending)-1].data, false)
		}
	}
	return res, flush(1e18)
}

// mergeRegions overlays the patched regions (dilated, macroblock-aligned)
// from patch onto a copy of low — the server-side fusion of the two passes.
func mergeRegions(low, patch *imgx.Plane, regions []imgx.Rect, dilatePx int) *imgx.Plane {
	out := low.Clone()
	for _, r := range regions {
		mb := mbSpan(r, dilatePx)
		box := imgx.Rect{
			MinX: mb.MinX * codec.MBSize, MinY: mb.MinY * codec.MBSize,
			MaxX: mb.MaxX * codec.MBSize, MaxY: mb.MaxY * codec.MBSize,
		}.ClipTo(out.W, out.H)
		for y := box.MinY; y < box.MaxY; y++ {
			copy(out.Row(y)[box.MinX:box.MaxX], patch.Row(y)[box.MinX:box.MaxX])
		}
	}
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mbSpan returns the macroblocks that pixel region r, dilated by dilatePx on
// every side, touches: a rectangle in macroblock units, not clipped to the
// frame.
func mbSpan(r imgx.Rect, dilatePx int) imgx.Rect {
	return imgx.Rect{
		MinX: (r.MinX - dilatePx) / codec.MBSize,
		MinY: (r.MinY - dilatePx) / codec.MBSize,
		MaxX: (r.MaxX + dilatePx + codec.MBSize - 1) / codec.MBSize,
		MaxY: (r.MaxY + dilatePx + codec.MBSize - 1) / codec.MBSize,
	}
}

// regionOffsets maps pixel regions onto a QP offset map: 0 on the
// macroblocks the dilated regions touch, fill elsewhere.
func regionOffsets(regions []imgx.Rect, mbw, mbh, dilatePx, fill int) []int {
	offsets := make([]int, mbw*mbh)
	for i := range offsets {
		offsets[i] = fill
	}
	for _, r := range regions {
		mb := mbSpan(r, dilatePx).ClipTo(mbw, mbh)
		for by := mb.MinY; by < mb.MaxY; by++ {
			for bx := mb.MinX; bx < mb.MaxX; bx++ {
				offsets[by*mbw+bx] = 0
			}
		}
	}
	return offsets
}
