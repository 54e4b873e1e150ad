package experiments

import (
	"strconv"

	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/metrics"
	"dive/internal/netsim"
	"dive/internal/sim"
	"dive/internal/world"
)

// Fig12Row is one (dataset, background QP) AP measurement with the
// foreground pinned at QP 0 in CRF mode — the foreground-extraction
// effectiveness study.
type Fig12Row struct {
	Dataset      string
	BackgroundQP int
	CarAP        float64
	PedAP        float64
}

// Fig12Foreground reproduces Figure 12: encode with the extracted
// foreground at QP 0 and sweep the background QP from 4 to 36 in steps of
// 8; AP should fall only slowly because the objects' pixels stay sharp.
func Fig12Foreground(scale Scale, seed int64) ([]Fig12Row, error) {
	rc, ns := Datasets(scale, seed)
	var rows []Fig12Row
	for _, w := range []Workload{rc, ns} {
		for qp := 4; qp <= 36; qp += 8 {
			bg := qp
			scheme := &sim.DiVE{ConfigFn: func(c *core.AgentConfig) {
				c.CRF = true
				c.AVE.FixedDelta = bg
			}}
			var allDets, allGT [][]detect.Detection
			for ci, clip := range w.Clips {
				env := sim.NewEnv(seed + int64(ci+qp*17))
				// A fat pipe: this experiment isolates encoding quality
				// from transport effects.
				link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(200)), 0.012)
				res, err := scheme.Run(clip, link, env)
				if err != nil {
					return nil, err
				}
				allDets = append(allDets, res.Detections...)
				allGT = append(allGT, sim.OracleDetections(clip, env)...)
			}
			rows = append(rows, Fig12Row{
				Dataset:      w.Name,
				BackgroundQP: qp,
				CarAP:        metrics.AP(allDets, allGT, world.ClassCar, metrics.DefaultIoU),
				PedAP:        metrics.AP(allDets, allGT, world.ClassPedestrian, metrics.DefaultIoU),
			})
		}
	}
	return rows, nil
}

// RenderFig12 formats the sweep.
func RenderFig12(rows []Fig12Row) *Table {
	t := &Table{
		Title:   "Fig 12: foreground extraction effectiveness (foreground QP 0)",
		Columns: []string{"dataset", "background QP", "car AP", "ped AP"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Dataset, strconv.Itoa(r.BackgroundQP), f3(r.CarAP), f3(r.PedAP)})
	}
	return t
}
