package experiments

import (
	"time"

	"dive/internal/codec"
	"dive/internal/core"
	"dive/internal/sim"
)

// Fig9Row is one (dataset, motion-estimation method) measurement: end-to-end
// mAP at 2 Mbps plus the measured per-frame agent compute time.
type Fig9Row struct {
	Dataset string
	Method  string
	MAP     float64
	// TimeMs is the measured mean wall time the agent spends per frame
	// (motion estimation dominates for the exhaustive searches).
	TimeMs WallMs
}

// Fig9MotionEstimation sweeps the five x264 search strategies on both
// datasets at 2 Mbps, reproducing Figure 9's accuracy/cost trade-off.
func Fig9MotionEstimation(scale Scale, seed int64) ([]Fig9Row, error) {
	rc, ns := Datasets(scale, seed)
	var rows []Fig9Row
	for _, w := range []Workload{rc, ns} {
		for _, m := range codec.AllMEMethods() {
			method := m
			scheme := &sim.DiVE{ConfigFn: func(c *core.AgentConfig) {
				c.Codec.Method = method
			}}
			t0 := time.Now()
			res, err := runScheme(w, scheme, constTrace(2), seed+int64(m)*37)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(t0)
			rows = append(rows, Fig9Row{
				Dataset: w.Name,
				Method:  m.String(),
				MAP:     res.MAP,
				TimeMs:  WallMs(elapsed.Seconds() * 1000 / float64(res.Frames)),
			})
		}
	}
	return rows, nil
}

// RenderFig9 formats the sweep.
func RenderFig9(rows []Fig9Row) *Table {
	t := &Table{
		Title:   "Fig 9: motion estimation methods (2 Mbps)",
		Columns: []string{"dataset", "method", "mAP", "agent ms/frame"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Dataset, r.Method, f3(r.MAP), r.TimeMs.cell(f1)})
	}
	return t
}
