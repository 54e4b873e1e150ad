package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// result is what one run of one workload measured. EndToEnd is filled by an
// untraced run and PerLayer by a traced one; Info carries what is printed but
// not gated (sample counts, p99, passes, the _ms twins of share metrics).
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	WallS     float64            `json:"wall_s"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Info      map[string]float64 `json:"info,omitempty"`
}

// finish folds the checker into the result. A frame can fail more than one
// check; failed never exceeds attempted.
func (r *result) finish(chk *checker) {
	r.Attempted = chk.attempted
	r.Failed = min(chk.failed, chk.attempted)
	r.Correct = chk.failed == 0 && chk.attempted > 0
	r.Notes = chk.notes
}

// driverLine is the contract's last line of standard output: exactly the
// keys correct, attempted, failed and metrics, the metrics being the
// end-to-end set of an untraced run or the per-layer set of a traced one.
func (r *result) driverLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, vals := endToEndSpecs, r.EndToEnd
	if r.Traced {
		specs, vals = perLayerSpecs, r.PerLayer
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, s.Name)
		}
		metrics[s.Name] = value{v, s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// runMeta records where and how a results file was measured. -compare
// refuses to call loopback timings comparable across files whose Conns or
// GOMAXPROCS differ.
type runMeta struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Conns      int     `json:"conns"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	ClipSec    float64 `json:"clip_seconds"`
	Repeat     int     `json:"repeat"`
	Commit     string  `json:"git_commit"`
}

func newRunMeta(o *options) runMeta {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return runMeta{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Conns: loadConns(), Seed: o.seed, Seconds: o.seconds, ClipSec: o.clipSeconds(),
		Repeat: o.repeat, Commit: commit,
	}
}

// metricRuns is one metric of one workload over the runs of a results file.
type metricRuns struct {
	Kind   string    `json:"kind"` // end_to_end, per_layer or info
	Unit   string    `json:"unit,omitempty"`
	Better string    `json:"better,omitempty"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// workloadRuns gathers a workload's runs.
type workloadRuns struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	WallS     []float64              `json:"wall_s"`
	Metrics   map[string]*metricRuns `json:"metrics"`
}

// resultsFile is the schema of -out, the input of -compare.
type resultsFile struct {
	RunMeta   runMeta         `json:"run_meta"`
	Workloads []*workloadRuns `json:"workloads"`
}

func (f *resultsFile) workload(name string) *workloadRuns {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w
		}
	}
	w := &workloadRuns{Name: name, Correct: true, Metrics: make(map[string]*metricRuns)}
	f.Workloads = append(f.Workloads, w)
	return w
}

// add folds one run into the file.
func (f *resultsFile) add(r *result) {
	w := f.workload(r.Workload)
	w.Correct = w.Correct && r.Correct
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Notes = append(w.Notes, r.Notes...)
	w.WallS = append(w.WallS, r.WallS)
	put := func(kind string, spec metricSpec, v float64) {
		m := w.Metrics[spec.Name]
		if m == nil {
			m = &metricRuns{Kind: kind, Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound}
			w.Metrics[spec.Name] = m
		}
		m.Values = append(m.Values, v)
		m.Median = median(m.Values)
		m.Q1, m.Q3 = quartiles(m.Values)
	}
	for _, s := range endToEndSpecs {
		if v, ok := r.EndToEnd[s.Name]; ok {
			put("end_to_end", s, v)
		}
	}
	for _, s := range perLayerSpecs {
		if v, ok := r.PerLayer[s.Name]; ok {
			put("per_layer", s, v)
		}
	}
	for name, v := range r.Info {
		put("info", metricSpec{Name: name}, v)
	}
}

func (f *resultsFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print writes every metric of the file by name with its unit: median, and
// quartiles when there is more than one run.
func (f *resultsFile) print(w io.Writer) {
	for _, wl := range f.Workloads {
		fmt.Fprintf(w, "\n== %s  correct=%v attempted=%d failed=%d wall=%.1fs\n", wl.Name, wl.Correct, wl.Attempted, wl.Failed, median(wl.WallS))
		for _, n := range wl.Notes {
			fmt.Fprintf(w, "   ! %s\n", n)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, kind := range []string{"end_to_end", "per_layer", "info"} {
			var names []string
			for name, m := range wl.Metrics {
				if m.Kind == kind {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				m := wl.Metrics[name]
				line := fmt.Sprintf("  %s\t%s\t%.4f\t%s", kind, name, m.Median, m.Unit)
				if len(m.Values) > 1 {
					line += fmt.Sprintf("\t[q1 %.4f, q3 %.4f, n %d]", m.Q1, m.Q3, len(m.Values))
				}
				if m.Bound > 0 {
					line += fmt.Sprintf("\tbound %.0f%%", m.Bound*100)
				}
				fmt.Fprintln(tw, line)
			}
		}
		tw.Flush()
	}
}
