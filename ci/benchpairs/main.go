// Command benchpairs is the repo benchmark's alternated-pair runner: it
// checks a parent commit out into a scratch directory, runs
//
//	bash benchmark/run.sh --workload <w> --seed <s> --seconds <n> --trace 0
//
// on the parent and on the working tree, pair after pair with the order
// flipped every pair, and writes BENCH_<pr>.json — per workload and
// end-to-end metric the two sides' medians and quartiles, the per-pair
// values, how many pairs the change won, and whether the change's median is
// within the bound BENCHMARK.json fixes. With -traced N it then runs N more
// alternated pairs per workload with --trace 1 and records the per-layer
// metrics of their last lines the same way, under per_layer. Run it from the
// repository root:
//
//	go run ./ci/benchpairs -parent HEAD~1 -pr 22 -pairs 10 -seeds 7,13,29 -traced 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// result is the last stdout line of one benchmark run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// layer is the two sides of one metric over the pairs. A per-layer metric
// is only this: BENCHMARK.json gives it no bound.
type layer struct {
	Unit       string       `json:"unit"`
	Better     string       `json:"better"`
	Parent     side         `json:"parent"`
	Change     side         `json:"change"`
	ChangeWins int          `json:"change_wins"`
	Ties       int          `json:"ties"`
	PerPair    [][2]float64 `json:"per_pair"`
}

// metric is an end-to-end metric: the two sides judged against its bound.
type metric struct {
	layer
	Bound        float64 `json:"bound"`
	WorseBy      float64 `json:"worse_by"`
	WithinBound  bool    `json:"within_bound"`
	ParentIQRRel float64 `json:"parent_iqr_rel"`
	Unresolved   bool    `json:"unresolved"`
}

type workload struct {
	Pairs       int               `json:"pairs"`
	Seeds       []int64           `json:"seeds"`
	Correct     bool              `json:"correct"`
	Failed      map[string]int    `json:"failed"`
	Attempted   map[string]int    `json:"attempted"`
	Metrics     map[string]metric `json:"metrics"`
	TracedPairs int               `json:"traced_pairs,omitempty"`
	PerLayer    map[string]layer  `json:"per_layer,omitempty"`
}

func main() {
	parent := flag.String("parent", "HEAD", "commit to compare the working tree against")
	pr := flag.Int("pr", 0, "PR number: names the output BENCH_<pr>.json")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	traced := flag.Int("traced", 0, "traced (--trace 1) parent/change pairs per workload, after the untraced ones")
	seedList := flag.String("seeds", "7,13", "comma-separated workload seeds, each used for an equal block of pairs")
	only := flag.String("workloads", "", "comma-separated subset of BENCHMARK.json's workloads (default all)")
	scratch := flag.String("scratch", "", "directory for the parent checkout (default: a new temporary one)")
	claim := flag.String("claim", "", "run_meta.claim")
	notes := flag.String("notes", "", "run_meta.notes")
	flag.Parse()
	if err := run(*parent, *pr, *pairs, *traced, *seedList, *only, *scratch, *claim, *notes); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(parent string, pr, pairs, traced int, seedList, only, scratch, claim, notes string) error {
	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var seeds []int64
	for _, s := range strings.Split(seedList, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, v)
	}
	if pairs < 1 || pairs < len(seeds) {
		return fmt.Errorf("-pairs %d cannot cover %d seeds", pairs, len(seeds))
	}
	if traced < 0 {
		return fmt.Errorf("-traced %d is negative", traced)
	}
	commit, err := exec.Command("git", "rev-parse", parent).Output()
	if err != nil {
		return fmt.Errorf("git rev-parse %s: %w", parent, err)
	}
	if scratch == "" {
		if scratch, err = os.MkdirTemp("", "benchpairs"); err != nil {
			return err
		}
		defer os.RemoveAll(scratch)
	}
	parentDir := filepath.Join(scratch, "parent")
	if err := os.MkdirAll(parentDir, 0o755); err != nil {
		return err
	}
	checkout := exec.Command("sh", "-c", `git archive --format=tar "$0" | tar -x -C "$1"`, strings.TrimSpace(string(commit)), parentDir)
	if out, err := checkout.CombinedOutput(); err != nil {
		return fmt.Errorf("check out %s: %v: %s", parent, err, out)
	}
	dirs := [2]string{parentDir, "."} // per_pair order: parent, change

	meta := map[string]any{
		"pr": pr, "parent_commit": strings.TrimSpace(string(commit)),
		"go_version": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"command": fmt.Sprintf("bash benchmark/run.sh --workload <w> --seed <s> --seconds %d --trace 0", sp.RunSeconds),
		"seconds": sp.RunSeconds,
		"pairs":   fmt.Sprintf("%d alternated parent/change pairs per workload, order flipped every pair; seeds %v in equal blocks of pairs", pairs, seeds),
		"estimator": "median and inclusive quartiles over the pairs; per_pair lists [parent, change]; worse_by and within_bound compare the change median with the parent median against the BENCHMARK.json bound; " +
			"unresolved = the parent's own interquartile spread, relative to its median, is wider than the bound",
		"claim": claim, "notes": notes,
	}
	if traced > 0 {
		meta["traced"] = fmt.Sprintf("per_layer: %d more alternated pairs per workload of the same command with --trace 1, seeds in equal blocks, summarized like the end-to-end metrics", traced)
	}
	out := map[string]any{"run_meta": meta}
	workloads := map[string]workload{}
	for _, w := range sp.Workloads {
		if only != "" && !strings.Contains(","+only+",", ","+w.Name+",") {
			continue
		}
		wl := workload{Pairs: pairs, Seeds: seeds, Correct: true,
			Failed: map[string]int{}, Attempted: map[string]int{}, Metrics: map[string]metric{}}
		values, err := runPairs(&wl, dirs, w.Name, seeds, pairs, 0, sp.RunSeconds)
		if err != nil {
			return err
		}
		for _, m := range sp.EndToEnd {
			wl.Metrics[m.Name] = summarize(values[m.Name], m.Unit, m.Better, m.Bound)
		}
		if traced > 0 {
			values, err := runPairs(&wl, dirs, w.Name, seeds, traced, 1, sp.RunSeconds)
			if err != nil {
				return err
			}
			wl.TracedPairs, wl.PerLayer = traced, map[string]layer{}
			for _, m := range sp.PerLayer {
				wl.PerLayer[m.Name] = compare(values[m.Name], m.Unit, m.Better)
			}
		}
		workloads[w.Name] = wl
	}
	out["workloads"] = workloads
	enc, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%d.json", pr), append(enc, '\n'), 0o644)
}

// runPairs runs n alternated parent/change pairs of workload at --trace
// trace, the seeds in equal blocks of pairs, adds their outcomes to wl's
// counts and returns every metric of their last lines as [parent, change]
// per pair.
func runPairs(wl *workload, dirs [2]string, name string, seeds []int64, n, trace, seconds int) (map[string][][2]float64, error) {
	values := map[string][][2]float64{}
	for p := 0; p < n; p++ {
		seed := seeds[p*len(seeds)/n]
		var pair [2]result
		for k := 0; k < 2; k++ {
			s := (k + p) % 2 // parent first on even pairs, change first on odd
			fmt.Fprintf(os.Stderr, "%s trace %d pair %d/%d seed %d: %s\n", name, trace, p+1, n, seed, [2]string{"parent", "change"}[s])
			var err error
			if pair[s], err = runOnce(dirs[s], name, seed, seconds, trace); err != nil {
				return nil, err
			}
		}
		for s, side := range [2]string{"parent", "change"} {
			wl.Correct = wl.Correct && pair[s].Correct
			wl.Failed[side] += pair[s].Failed
			wl.Attempted[side] += pair[s].Attempted
		}
		for m := range pair[0].Metrics {
			values[m] = append(values[m], [2]float64{round6(pair[0].Metrics[m].Value), round6(pair[1].Metrics[m].Value)})
		}
	}
	return values, nil
}

func runOnce(dir, workload string, seed int64, seconds, trace int) (result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s in %s: %w", workload, dir, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s in %s: last stdout line is not the result object: %w", workload, dir, err)
	}
	return r, nil
}

// compare counts the pairs the change won and tied and takes each side's
// median and quartiles.
func compare(pairs [][2]float64, unit, better string) layer {
	l := layer{Unit: unit, Better: better, PerPair: pairs}
	var col [2][]float64
	for _, p := range pairs {
		col[0], col[1] = append(col[0], p[0]), append(col[1], p[1])
		switch {
		case p[0] == p[1]:
			l.Ties++
		case (p[1] > p[0]) == (better == "higher"):
			l.ChangeWins++
		}
	}
	l.Parent, l.Change = quartiles(col[0]), quartiles(col[1])
	return l
}

func summarize(pairs [][2]float64, unit, better string, bound float64) metric {
	m := metric{layer: compare(pairs, unit, better), Bound: bound}
	if base := math.Abs(m.Parent.Median); base > 0 {
		worse := (m.Change.Median - m.Parent.Median) / base
		if better == "higher" {
			worse = -worse
		}
		m.WorseBy = round4(math.Max(worse, 0))
		m.ParentIQRRel = round4((m.Parent.Q3 - m.Parent.Q1) / base)
	}
	m.WithinBound = m.WorseBy <= bound
	m.Unresolved = m.ParentIQRRel > bound
	return m
}

// quartiles returns the median and the inclusive quartiles (linear
// interpolation between the order statistics at (n-1)·p).
func quartiles(xs []float64) side {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := float64(len(s)-1) * p
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return round6(s[lo] + (s[hi]-s[lo])*(pos-float64(lo)))
	}
	return side{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), N: len(s)}
}

func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }
