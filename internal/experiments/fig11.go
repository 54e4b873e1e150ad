package experiments

import (
	"fmt"

	"dive/internal/core"
	"dive/internal/sim"
)

// Fig11Row is one (dataset, δ policy, bandwidth) mAP measurement.
type Fig11Row struct {
	Dataset   string
	Delta     string // "5", "15", "25" or "adaptive"
	Bandwidth float64
	MAP       float64
}

// Fig11QPAssignment sweeps the foreground/background QP delta — fixed 5,
// 15, 25 and the adaptive policy — across 1..5 Mbps on both datasets
// (Figure 11's Optimal QP Assignment study).
func Fig11QPAssignment(scale Scale, seed int64) ([]Fig11Row, error) {
	rc, ns := Datasets(scale, seed)
	policies := []struct {
		label string
		fn    func(*core.AgentConfig)
	}{
		{"5", fixedDelta(5)},
		{"15", fixedDelta(15)},
		{"25", fixedDelta(25)},
		{"adaptive", nil},
	}
	bandwidths := bandwidthSweep(scale)
	var rows []Fig11Row
	for _, w := range []Workload{rc, ns} {
		for _, pol := range policies {
			for _, bw := range bandwidths {
				scheme := &sim.DiVE{ConfigFn: pol.fn}
				res, err := runScheme(w, scheme, constTrace(bw), seed+int64(bw*1000))
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig11Row{
					Dataset: w.Name, Delta: pol.label,
					Bandwidth: bw, MAP: res.MAP,
				})
			}
		}
	}
	return rows, nil
}

// fixedDelta pins the AVE policy to a constant δ.
func fixedDelta(d int) func(*core.AgentConfig) {
	return func(c *core.AgentConfig) { c.AVE.FixedDelta = d }
}

// bandwidthSweep returns the 1..5 Mbps axis (coarser at smoke scale).
func bandwidthSweep(scale Scale) []float64 {
	if scale == ScaleSmoke {
		return []float64{1, 3}
	}
	return []float64{1, 2, 3, 4, 5}
}

// RenderFig11 formats the sweep.
func RenderFig11(rows []Fig11Row) *Table {
	t := &Table{
		Title:   "Fig 11: optimal QP assignment (mAP by δ and bandwidth)",
		Columns: []string{"dataset", "delta", "bandwidth (Mbps)", "mAP"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Dataset, r.Delta, fmt.Sprintf("%.0f", r.Bandwidth), f3(r.MAP)})
	}
	return t
}
