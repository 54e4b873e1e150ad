package experiments

import (
	"dive/internal/geom"
	"dive/internal/mvfield"
)

// Fig10Row is one sample of the k sweep (Figure 10): estimation error and
// RANSAC time as functions of the number of R-sampled vectors.
type Fig10Row struct {
	K int
	// MeanErr is the mean absolute rotational-speed error (rad/s),
	// averaged over both axes.
	MeanErr float64
	// TimeMs is the mean wall time of one rotation estimate.
	TimeMs WallMs
}

// Fig10SampleCount sweeps k from 10 to 100 in steps of 5 (the paper's
// range) with R-sampling on the KITTI-flavored workload.
func Fig10SampleCount(scale Scale, seed int64) ([]Fig10Row, error) {
	clips := KITTIClips(scale, seed)
	step := 5
	if scale == ScaleSmoke {
		step = 30 // keep unit tests fast; the sweep shape is unchanged
	}
	var rows []Fig10Row
	for k := 10; k <= 100; k += step {
		est := mvfield.NewRotationEstimator()
		est.K = k
		est.Strategy = mvfield.RSampling
		xe, ye, meanTime, err := rotationErrors(clips, est, seed+int64(k))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			K:       k,
			MeanErr: (geom.Mean(xe) + geom.Mean(ye)) / 2,
			TimeMs:  WallMs(meanTime * 1000),
		})
	}
	return rows, nil
}

// RenderFig10 formats the sweep.
func RenderFig10(rows []Fig10Row) *Table {
	t := &Table{
		Title:   "Fig 10: effect of the number of sampled points k",
		Columns: []string{"k", "mean |ω err| (rad/s)", "time (ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f1(float64(r.K)), f3(r.MeanErr), r.TimeMs.cell(f3)})
	}
	return t
}
