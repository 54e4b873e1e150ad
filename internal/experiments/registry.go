package experiments

// Experiment is one table or figure of the evaluation: the id `divebench
// -only` selects it by, and a Run that computes its typed rows.
type Experiment struct {
	ID  string
	Run func(scale Scale, seed int64) (Result, error)
}

// Result is what one experiment measured: its typed rows, the one statement
// of the result (divebench -json records them, the registry golden pins
// them), and the renderer Table draws them with.
type Result struct {
	Rows   any
	render func(rows any) *Table
}

// Table renders the rows as the entry's printable table.
func (r Result) Table() *Table { return r.render(r.Rows) }

// Registry lists every experiment once, in print order. cmd/divebench loops
// over it and the root BenchmarkExperiments times each entry; a new
// experiment is one row here.
var Registry = []Experiment{
	entry("t1", func(scale Scale, seed int64) ([]Table1Row, error) { return TableI(scale, seed), nil }, RenderTableI),
	entry("f6", Fig6EgoMotion, RenderFig6),
	entry("f7", Fig7RSampling, RenderFig7),
	entry("f9", Fig9MotionEstimation, RenderFig9),
	entry("f10", Fig10SampleCount, RenderFig10),
	entry("f11", Fig11QPAssignment, RenderFig11),
	entry("f12", Fig12Foreground, RenderFig12),
	entry("f13", Fig13OfflineTracking, RenderFig13),
	entry("f14", Fig14MotionStates, RenderFig14),
	entry("f16", Fig16EndToEndRobotCar, endToEndTitled("Fig 16: end-to-end comparison, RobotCar")),
	entry("abl", AblationRotation, RenderAblation),
	entry("abl2", AblationSubPel, RenderSubPelAblation),
	entry("night", NightStudy, RenderNight),
	entry("f17", Fig17EndToEndNuScenes, endToEndTitled("Fig 17: end-to-end comparison, nuScenes")),
}

// entry pairs a typed experiment function with its renderer.
func entry[R any](id string, fig func(Scale, int64) (R, error), render func(R) *Table) Experiment {
	return Experiment{ID: id, Run: func(scale Scale, seed int64) (Result, error) {
		rows, err := fig(scale, seed)
		if err != nil {
			return Result{}, err
		}
		return Result{Rows: rows, render: func(rows any) *Table { return render(rows.(R)) }}, nil
	}}
}

func endToEndTitled(title string) func([]EvalResult) *Table {
	return func(rows []EvalResult) *Table { return RenderEndToEnd(title, rows) }
}
