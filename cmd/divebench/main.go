// Command divebench regenerates the paper's tables and figures on the
// synthetic substrate and prints them as text tables.
//
// Usage:
//
//	divebench [-scale smoke|default|full] [-seed N] [-only id,id,...]
//	          [-json bench_results.json]
//
// The experiments are the rows of experiments.Registry, run in its order;
// -only selects a subset by id (divebench -h lists the ids). By default
// every experiment runs at the default scale. The experiments fan their
// clips and runs out over GOMAXPROCS goroutines; every table is identical at
// any width.
//
// -json also writes a machine-readable results file: the environment that
// produced the numbers, every selected experiment's typed rows under its id
// and per-experiment wall times.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"dive/internal/experiments"
	"dive/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "divebench:", err)
		os.Exit(1)
	}
}

// collectRunMeta captures the execution environment for the -json output.
// The git commit is best effort: empty outside a checkout or without git.
func collectRunMeta(profile string) obs.RunMeta {
	meta := obs.CollectRunMeta()
	meta.Profile = profile
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		meta.GitCommit = strings.TrimSpace(string(out))
	}
	return meta
}

// experimentIDs joins the registry's ids in print order.
func experimentIDs() string {
	ids := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		ids[i] = e.ID
	}
	return strings.Join(ids, ",")
}

// selectExperiments resolves -only against the registry: "" selects every
// experiment; any other id must be registered. The selection
// keeps registry order whatever order the ids were given in.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	if only == "" {
		return experiments.Registry, nil
	}
	known := map[string]bool{}
	for _, e := range experiments.Registry {
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q in -only (valid: %s)", id, experimentIDs())
		}
		want[id] = true
	}
	var selected []experiments.Experiment
	for _, e := range experiments.Registry {
		if want[e.ID] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("divebench", flag.ContinueOnError)
	scaleName := fs.String("scale", "default", "experiment scale: smoke, default or full")
	seed := fs.Int64("seed", experiments.BaseSeed, "base random seed")
	only := fs.String("only", "", "comma-separated experiment ids ("+experimentIDs()+")")
	jsonPath := fs.String("json", "bench_results.json", "write machine-readable results here (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	selected, err := selectExperiments(*only)
	if err != nil {
		return err
	}

	results := &benchResults{
		Scale: scale.String(), Seed: *seed,
		RunMeta:        collectRunMeta(scale.String()),
		ExperimentSecs: map[string]float64{},
		Results:        map[string]any{},
	}

	fmt.Fprintf(w, "divebench: scale=%s seed=%d\n\n", scale, *seed)
	for _, e := range selected {
		t0 := time.Now()
		res, err := e.Run(scale, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		results.Results[e.ID] = res.Rows
		res.Table().Fprint(w)
		took := time.Since(t0).Seconds()
		results.ExperimentSecs[e.ID] = took
		fmt.Fprintf(w, "[%s took %.1fs]\n\n", e.ID, took)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonPath)
	}
	return nil
}

// benchResults is the schema of the -json output: what the run printed, in
// machine-readable form. The performance trajectory successive PRs track is
// not this file but BENCH_<pr>.json, written by the repo benchmark
// (benchmark/).
type benchResults struct {
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	// RunMeta pins the environment that produced the numbers (Go version,
	// machine shape, git commit) so a reader can tell a code
	// regression from a machine change.
	RunMeta        obs.RunMeta        `json:"run_meta"`
	ExperimentSecs map[string]float64 `json:"experiment_secs"`
	// Results holds each selected experiment's typed rows under its id.
	Results map[string]any `json:"results,omitempty"`
}
