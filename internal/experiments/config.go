// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic substrate: one function per
// result returning typed rows, one renderer per row type, and Registry, the
// one list that pairs them — cmd/divebench prints it, the root
// BenchmarkExperiments times it. All experiments are deterministic in their
// seeds.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"dive/internal/world"
)

// Scale trades experiment fidelity for runtime.
type Scale int

// Scales.
const (
	// ScaleSmoke is for unit tests: one short clip per dataset.
	ScaleSmoke Scale = iota + 1
	// ScaleDefault balances fidelity and runtime for interactive runs.
	ScaleDefault
	// ScaleFull is the paper-shaped configuration.
	ScaleFull
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmoke:
		return "smoke"
	case ScaleDefault:
		return "default"
	case ScaleFull:
		return "full"
	default:
		return "unknown"
	}
}

// ParseScale is the inverse of Scale.String.
func ParseScale(name string) (Scale, error) {
	var valid []string
	for s := ScaleSmoke; s <= ScaleFull; s++ {
		if s.String() == name {
			return s, nil
		}
		valid = append(valid, s.String())
	}
	return 0, fmt.Errorf("unknown scale %q (valid: %s)", name, strings.Join(valid, ", "))
}

// params returns clips-per-dataset and clip duration for a scale.
func (s Scale) params() (clips int, duration float64) {
	switch s {
	case ScaleSmoke:
		return 1, 2.0
	case ScaleFull:
		return 4, 8.0
	default:
		return 2, 4.0
	}
}

// Workload is one dataset's clip collection.
type Workload struct {
	Name  string
	Clips []*world.Clip
}

// BaseSeed is the default experiment seed; every experiment derives its
// sub-seeds from it.
const BaseSeed = 20250706

// Datasets renders the two evaluation workloads (Section IV-A): a
// RobotCar-flavored and a nuScenes-flavored set.
func Datasets(scale Scale, seed int64) (robotcar, nuscenes Workload) {
	n, dur := scale.params()
	rp := world.RobotCarLike()
	rp.ClipDuration = dur
	np := world.NuScenesLike()
	np.ClipDuration = dur
	return Workload{Name: rp.Name, Clips: world.GenerateDataset(rp, seed, n)},
		Workload{Name: np.Name, Clips: world.GenerateDataset(np, seed+1_000_000, n)}
}

// KITTIClips renders the rotation-estimation workload (with IMU truth).
func KITTIClips(scale Scale, seed int64) []*world.Clip {
	n, dur := scale.params()
	kp := world.KITTILike()
	kp.ClipDuration = dur
	return world.GenerateDataset(kp, seed+2_000_000, n)
}

// Table is a generic printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Columns)
	for i, wd := range widths {
		for j := 0; j < wd; j++ {
			fmt.Fprint(w, "-")
		}
		if i < len(widths)-1 {
			fmt.Fprint(w, "  ")
		}
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// f3 formats a float with 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1 formats a float with 1 decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// WallMs is a wall-clock time in milliseconds, the one kind of result value
// its seed does not fix: the registry golden pins it to zero, shown as "—".
type WallMs float64

func (m WallMs) cell(format func(float64) string) string {
	if m == 0 {
		return "—"
	}
	return format(float64(m))
}
