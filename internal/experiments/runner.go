package experiments

import (
	"dive/internal/detect"
	"dive/internal/metrics"
	"dive/internal/netsim"
	"dive/internal/sim"
	"dive/internal/world"
)

// EvalResult aggregates one (scheme, workload, network) evaluation; it is
// also the row of the end-to-end comparisons (f16, f17), which set Bandwidth.
type EvalResult struct {
	Dataset     string  `json:"dataset"`
	Scheme      string  `json:"scheme"`
	Bandwidth   float64 `json:"bandwidth_mbps"` // constant link capacity, Mbps (end-to-end rows only)
	MAP         float64 `json:"map"`
	CarAP       float64 `json:"car_ap"`
	PedAP       float64 `json:"ped_ap"`
	MeanRT      float64 `json:"mean_rt_sec"` // seconds
	P50RT       float64 `json:"p50_rt_sec"`
	P95RT       float64 `json:"p95_rt_sec"`
	BitrateMbps float64 `json:"bitrate_mbps"` // achieved uplink bitrate over the summed clip durations
	Frames      int     `json:"frames"`
}

// clipOutcome is one clip's evaluation, produced into a pre-sized per-clip
// slot so concurrent evaluation aggregates in the same order as the serial
// loop (float summation order included).
type clipOutcome struct {
	dets, gt [][]detect.Detection
	rts      []float64
	bits     int
	frames   int
	seconds  float64
	err      error
}

// runScheme evaluates a scheme over every clip of a workload; traceFn
// builds the bandwidth trace per clip (fresh link state per clip). Clips are
// independent — every scheme builds its per-run pipeline state inside Run —
// and fan across the harness pool.
func runScheme(w Workload, scheme sim.Scheme, traceFn func(clipIdx int) netsim.Trace, envSeed int64) (EvalResult, error) {
	out := EvalResult{Scheme: scheme.Name(), Dataset: w.Name}
	outs := make([]clipOutcome, len(w.Clips))
	pool().ForEach(len(w.Clips), func(ci int) {
		clip := w.Clips[ci]
		env := sim.NewEnv(envSeed + int64(ci)*131071)
		link := netsim.NewLink(traceFn(ci), 0.012)
		res, err := scheme.Run(clip, link, env)
		if err != nil {
			outs[ci].err = err
			return
		}
		outs[ci] = clipOutcome{
			dets: res.Detections, gt: sim.OracleDetections(clip, env),
			rts: res.ResponseTimes, bits: res.TotalBits(),
			frames:  clip.NumFrames(),
			seconds: float64(clip.NumFrames()) / clip.FPS,
		}
	})
	var allDets, allGT [][]detect.Detection
	var rts []float64
	bits, seconds := 0, 0.0
	for _, c := range outs {
		if c.err != nil {
			return out, c.err
		}
		allDets = append(allDets, c.dets...)
		allGT = append(allGT, c.gt...)
		rts = append(rts, c.rts...)
		bits += c.bits
		out.Frames += c.frames
		seconds += c.seconds
	}
	out.CarAP = metrics.AP(allDets, allGT, world.ClassCar, metrics.DefaultIoU)
	out.PedAP = metrics.AP(allDets, allGT, world.ClassPedestrian, metrics.DefaultIoU)
	out.MAP = (out.CarAP + out.PedAP) / 2
	lat := metrics.SummarizeLatency(rts)
	out.MeanRT = lat.Mean
	out.P50RT = lat.P50
	out.P95RT = lat.P95
	if seconds > 0 {
		out.BitrateMbps = float64(bits) / seconds / 1e6
	}
	return out, nil
}

// constTrace returns a factory for a constant-bandwidth trace.
func constTrace(mbps float64) func(int) netsim.Trace {
	return func(int) netsim.Trace { return netsim.ConstantTrace(netsim.Mbps(mbps)) }
}
