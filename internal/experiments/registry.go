package experiments

// Experiment is one table or figure of the evaluation: the id `divebench
// -only` selects it by, and a Run that computes its typed rows and renders
// them. The end-to-end comparisons (f16, f17) also hand back their rows,
// which divebench -json records; every other entry returns nil there.
type Experiment struct {
	ID  string
	Run func(scale Scale, seed int64) (*Table, []EndToEndRow, error)
}

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

// entry pairs a typed experiment function with its renderer. Rows of the
// end-to-end type are passed through as the entry's second result.
func entry[R any](id string, fig func(Scale, int64) (R, error), render func(R) *Table) Experiment {
	return Experiment{ID: id, Run: func(scale Scale, seed int64) (*Table, []EndToEndRow, error) {
		rows, err := fig(scale, seed)
		if err != nil {
			return nil, nil, err
		}
		endToEnd, _ := any(rows).([]EndToEndRow)
		return render(rows), endToEnd, nil
	}}
}

func endToEndTitled(title string) func([]EndToEndRow) *Table {
	return func(rows []EndToEndRow) *Table { return RenderEndToEnd(title, rows) }
}
