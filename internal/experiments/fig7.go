package experiments

import (
	"math"
	"math/rand"
	"time"

	"dive/internal/codec"
	"dive/internal/geom"
	"dive/internal/mvfield"
	"dive/internal/world"
)

// RotationErrorCDFs holds one estimator configuration's per-frame absolute
// errors of the estimated rotational speeds (rad/s) against the IMU truth.
type RotationErrorCDFs struct {
	Label     string
	OmegaXErr []geom.CDFPoint
	OmegaYErr []geom.CDFPoint
	MeanX     float64
	MeanY     float64
}

// Fig7Result compares R-sampling against random sampling (Figure 7).
type Fig7Result struct {
	Configs []RotationErrorCDFs
}

// rotationErrors runs one estimator over KITTI-flavored clips and collects
// absolute rotational-speed errors. It returns the mean wall time per
// estimate — every call, failed ones included, on one scratch kept warm
// across the clips as the agent keeps its own — which Figure 10 reuses.
func rotationErrors(clips []*world.Clip, est *mvfield.RotationEstimator, seed int64) (xErrs, yErrs []float64, meanTime float64, err error) {
	return rotationErrorsCfg(clips, est, seed, nil)
}

// rotationErrorsCfg is rotationErrors with a codec-config hook (used by the
// sub-pel ablation).
func rotationErrorsCfg(clips []*world.Clip, est *mvfield.RotationEstimator, seed int64, cfgFn func(*codec.Config)) (xErrs, yErrs []float64, meanTime float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	var (
		scratch mvfield.Scratch
		elapsed time.Duration
		calls   int
	)
	for _, clip := range clips {
		ccfg := codec.DefaultConfig(clip.W, clip.H)
		if cfgFn != nil {
			cfgFn(&ccfg)
		}
		enc, cerr := codec.NewEncoder(ccfg)
		if cerr != nil {
			return nil, nil, 0, cerr
		}
		for i, frame := range clip.Frames {
			mf := enc.AnalyzeMotion(frame)
			if _, eerr := enc.Encode(frame, codec.EncodeOptions{BaseQP: 16}); eerr != nil {
				return nil, nil, 0, eerr
			}
			if mf == nil || clip.Poses[i].State == world.MotionStatic {
				continue
			}
			field := mvfield.FromMotion(mf, clip.Focal, float64(clip.W)/2, float64(clip.H)/2, 0)
			t0 := time.Now()
			phiX, phiY, eerr := est.EstimateWith(&scratch, field, geom.Vec2{}, rng)
			elapsed += time.Since(t0)
			calls++
			if eerr != nil {
				continue
			}
			// Per-frame increments → rates.
			wx := phiX * clip.FPS
			wy := phiY * clip.FPS
			xErrs = append(xErrs, math.Abs(wx-clip.Poses[i].PitchRate))
			yErrs = append(yErrs, math.Abs(wy-clip.Poses[i].YawRate))
		}
	}
	if calls > 0 {
		meanTime = elapsed.Seconds() / float64(calls)
	}
	return xErrs, yErrs, meanTime, nil
}

// Fig7RSampling reproduces Figure 7: error CDFs of ω_x and ω_y for
// R-sampling with k=30 versus random sampling with k=30 and k=500.
func Fig7RSampling(scale Scale, seed int64) (*Fig7Result, error) {
	clips := KITTIClips(scale, seed)
	configs := []struct {
		label    string
		strategy mvfield.Sampling
		k        int
	}{
		{"R-sampling k=30", mvfield.RSampling, 30},
		{"random k=30", mvfield.RandomSampling, 30},
		{"random k=500", mvfield.RandomSampling, 500},
	}
	res := &Fig7Result{}
	for i, c := range configs {
		est := mvfield.NewRotationEstimator()
		est.K = c.k
		est.Strategy = c.strategy
		xe, ye, _, err := rotationErrors(clips, est, seed+int64(i)*101)
		if err != nil {
			return nil, err
		}
		res.Configs = append(res.Configs, RotationErrorCDFs{
			Label:     c.label,
			OmegaXErr: geom.EmpiricalCDF(xe),
			OmegaYErr: geom.EmpiricalCDF(ye),
			MeanX:     geom.Mean(xe),
			MeanY:     geom.Mean(ye),
		})
	}
	return res, nil
}

// RenderFig7 formats the comparison.
func RenderFig7(r *Fig7Result) *Table {
	t := &Table{
		Title:   "Fig 7: rotational speed estimation error (rad/s)",
		Columns: []string{"sampling", "mean |ωx err|", "P90 |ωx err|", "mean |ωy err|", "P90 |ωy err|"},
	}
	for _, c := range r.Configs {
		t.Rows = append(t.Rows, []string{
			c.Label,
			f3(c.MeanX), f3(cdfP(c.OmegaXErr, 90)),
			f3(c.MeanY), f3(cdfP(c.OmegaYErr, 90)),
		})
	}
	return t
}

// cdfP extracts the p-th percentile value from CDF points.
func cdfP(cdf []geom.CDFPoint, p float64) float64 {
	var vals []float64
	for _, pt := range cdf {
		vals = append(vals, pt.Value)
	}
	return geom.Percentile(vals, p)
}
