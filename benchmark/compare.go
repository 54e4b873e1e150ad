package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of -compare, per workload × end-to-end metric.
const (
	verdictOK           = "ok"
	verdictRegressed    = "regressed"
	verdictUnresolved   = "unresolved"
	verdictIncomparable = "incomparable"
)

// comparison is one row of -compare.
type comparison struct {
	Workload, Metric string
	Base, Change     float64 // medians
	Worse            float64 // share of Base by which Change is worse (negative: better)
	Spread           float64 // widest interquartile range of the two, as a share of its median
	Bound            float64
	Verdict          string
}

// loopbackTiming reports whether a metric of a workload is a wall-clock
// number that depends on how many connections and processors generated load.
func loopbackTiming(workload, metric string) bool {
	if workload != wlServerReplay && workload != wlLiveLockstep {
		return false
	}
	switch metric {
	case "fps", "frame_ms_p50", "frame_ms_p90", "setup_s":
		return true
	}
	return false
}

// judge compares one metric's runs. The change regresses when its median is
// worse than the base's by more than the bound. When the runs of either side
// spread wider than the bound the metric cannot be called unchanged: it is
// unresolved, unless every run of the change reads better than every run of
// the base.
func judge(base, change *metricRuns) (worse, spread float64, verdict string) {
	higher := base.Better == "higher"
	if base.Median != 0 {
		worse = (change.Median - base.Median) / base.Median
		if higher {
			worse = -worse
		}
	}
	for _, m := range []*metricRuns{base, change} {
		if len(m.Values) > 1 && m.Median != 0 {
			if s := (m.Q3 - m.Q1) / m.Median; s > spread {
				spread = s
			}
		}
	}
	switch {
	case worse > base.Bound && spread > worse:
		return worse, spread, verdictUnresolved
	case worse > base.Bound:
		return worse, spread, verdictRegressed
	case spread > base.Bound && !allBetter(base, change, higher):
		return worse, spread, verdictUnresolved
	}
	return worse, spread, verdictOK
}

// allBetter reports whether every run of change beats every run of base.
func allBetter(base, change *metricRuns, higher bool) bool {
	b, c := sortedCopy(base.Values), sortedCopy(change.Values)
	if len(b) == 0 || len(c) == 0 {
		return false
	}
	if higher {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}

// compareFiles judges every workload × end-to-end metric present in both
// files.
func compareFiles(base, change *resultsFile) []comparison {
	sameLoad := base.RunMeta.Conns == change.RunMeta.Conns && base.RunMeta.GOMAXPROCS == change.RunMeta.GOMAXPROCS
	var rows []comparison
	for _, bw := range base.Workloads {
		var cw *workloadRuns
		for _, w := range change.Workloads {
			if w.Name == bw.Name {
				cw = w
			}
		}
		if cw == nil {
			continue
		}
		for _, spec := range endToEndSpecs {
			bm, cm := bw.Metrics[spec.Name], cw.Metrics[spec.Name]
			if bm == nil || cm == nil {
				continue
			}
			row := comparison{Workload: bw.Name, Metric: spec.Name, Base: bm.Median, Change: cm.Median, Bound: bm.Bound}
			row.Worse, row.Spread, row.Verdict = judge(bm, cm)
			if !sameLoad && loopbackTiming(bw.Name, spec.Name) {
				row.Verdict = verdictIncomparable
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// runCompare prints the comparison of two results files and returns the
// process exit code: 1 when any metric regressed or a side had failures.
func runCompare(w io.Writer, basePath, changePath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	change, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	code := 0
	for _, f := range []*resultsFile{base, change} {
		for _, wl := range f.Workloads {
			if !wl.Correct {
				fmt.Fprintf(w, "%s: %d of %d operations failed\n", wl.Name, wl.Failed, wl.Attempted)
				code = 1
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tchange\tworse\tspread\tbound\tverdict")
	incomparable := false
	for _, r := range compareFiles(base, change) {
		incomparable = incomparable || r.Verdict == verdictIncomparable
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Base, r.Change, r.Worse*100, r.Spread*100, r.Bound*100, r.Verdict)
		if r.Verdict == verdictRegressed {
			code = 1
		}
	}
	tw.Flush()
	if incomparable {
		fmt.Fprintf(w, "load differs (conns %d vs %d, GOMAXPROCS %d vs %d): loopback timings are not comparable\n",
			base.RunMeta.Conns, change.RunMeta.Conns, base.RunMeta.GOMAXPROCS, change.RunMeta.GOMAXPROCS)
	}
	return code
}
