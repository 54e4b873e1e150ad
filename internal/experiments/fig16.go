package experiments

import (
	"fmt"

	"dive/internal/baselines"
	"dive/internal/sim"
)

// schemes returns the full comparison field of Section IV-G.
func schemes() []sim.Scheme {
	return []sim.Scheme{
		&sim.DiVE{},
		&baselines.O3{},
		&baselines.EAAR{},
		&baselines.DDS{},
	}
}

// endToEnd sweeps all schemes across bandwidths on one workload. The
// (bandwidth, scheme) cells are independent, so they fan across the harness
// pool into a slice pre-sized and indexed by cell — row order is identical
// to the serial double loop at any width. Each cell evaluates a fresh scheme
// instance so no state is shared across concurrent cells.
func endToEnd(w Workload, scale Scale, seed int64) ([]EvalResult, error) {
	bws := bandwidthSweep(scale)
	numSchemes := len(schemes())
	rows := make([]EvalResult, len(bws)*numSchemes)
	errs := make([]error, len(rows))
	pool().ForEach(len(rows), func(j int) {
		bw := bws[j/numSchemes]
		s := schemes()[j%numSchemes]
		res, err := runScheme(w, s, constTrace(bw), seed+int64(bw*131))
		if err != nil {
			errs[j] = err
			return
		}
		res.Bandwidth = bw
		rows[j] = res
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Fig16EndToEndRobotCar compares DiVE with O3, EAAR and DDS on the
// RobotCar-flavored workload across 1..5 Mbps (Figure 16).
func Fig16EndToEndRobotCar(scale Scale, seed int64) ([]EvalResult, error) {
	rc, _ := Datasets(scale, seed)
	return endToEnd(rc, scale, seed)
}

// Fig17EndToEndNuScenes is the same comparison on the nuScenes-flavored
// workload (Figure 17).
func Fig17EndToEndNuScenes(scale Scale, seed int64) ([]EvalResult, error) {
	_, ns := Datasets(scale, seed)
	return endToEnd(ns, scale, seed+500)
}

// RenderEndToEnd formats a comparison table.
func RenderEndToEnd(title string, rows []EvalResult) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"scheme", "bandwidth (Mbps)", "mAP", "car AP", "ped AP", "mean RT (ms)", "P95 RT (ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scheme, fmt.Sprintf("%.0f", r.Bandwidth),
			f3(r.MAP), f3(r.CarAP), f3(r.PedAP),
			f1(r.MeanRT * 1000), f1(r.P95RT * 1000),
		})
	}
	return t
}
