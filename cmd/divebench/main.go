// Command divebench regenerates the paper's tables and figures on the
// synthetic substrate and prints them as text tables.
//
// Usage:
//
//	divebench [-scale smoke|default|full] [-seed N] [-only t1,f6,...]
//	          [-json bench_results.json] [-telemetry] [-workers N]
//	          [-speedup=false] [-pipeline-depth N]
//	          [-throughput] [-throughput-secs S]
//	          [-streams N] [-streams-secs S] [-runtime-log runtime.jsonl]
//
// -workers bounds the experiment fan-out and encoder/renderer pool width
// (0 = GOMAXPROCS, 1 = serial). Every table is identical at any width; the
// parallel layer only changes wall-clock time. -speedup measures the
// serial-vs-parallel encoder throughput ratio and records it in -json,
// along with the frame-pipeline throughput ratio (capture ∥ analyze ∥ emit
// at -pipeline-depth frames in flight; 0 disables the measurement).
// -throughput runs the sustained streaming-encode mode: a serial encoder kept
// hot for -throughput-secs wall seconds, default allocation behavior vs the
// pooled steady-state path, reporting frames/sec/core and per-frame heap
// allocation rates in -json alongside the go_heap_live_bytes / GC-pause
// telemetry.
//
// -streams runs the multi-stream packing ladder: 1/4/16/64 (≤ N) concurrent
// pooled serial encoders, reporting aggregate frames/sec/core and GC
// co-tenancy per rung in -json; -runtime-log captures the highest-density
// rung's steady window as a runtime-stats JSONL series for divedoctor
// -runtime.
//
// Experiment ids: t1 (Table I), f6, f7, f9, f10, f11, f12, f13, f14,
// f16, f17, abl, abl2, night. By default every experiment runs at the
// default scale.
//
// -json also writes a machine-readable results file: per-profile bitrate,
// AP and latency quantiles from the end-to-end experiments (f16/f17),
// per-experiment wall times, and — with -telemetry — a snapshot of the
// pipeline telemetry (stage-duration histograms, counters, gauges), so
// successive PRs can track a performance trajectory.
//
// -telemetry installs a process-wide recorder and prints a one-line
// pipeline summary to stderr every 10 seconds while experiments run.
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

// logWriter converts an optional file into an io.Writer without the
// typed-nil interface trap (a nil *os.File is a non-nil io.Writer).
func logWriter(f *os.File) io.Writer {
	if f == nil {
		return nil
	}
	return f
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "divebench:", err)
		os.Exit(1)
	}
}

// collectRunMeta captures the execution environment for the -json output.
// The git commit is best effort: empty outside a checkout or without git.
func collectRunMeta(workers int, profile string) obs.RunMeta {
	meta := obs.CollectRunMeta(workers)
	meta.Profile = profile
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		meta.GitCommit = strings.TrimSpace(string(out))
	}
	return meta
}

func run(args []string) error {
	fs := flag.NewFlagSet("divebench", flag.ContinueOnError)
	scaleName := fs.String("scale", "default", "experiment scale: smoke, default or full")
	seed := fs.Int64("seed", experiments.BaseSeed, "base random seed")
	only := fs.String("only", "", "comma-separated experiment ids (t1,f6,f7,f9,f10,f11,f12,f13,f14,f16,f17,abl,abl2,night)")
	jsonPath := fs.String("json", "bench_results.json", "write machine-readable results here (empty disables)")
	telemetry := fs.Bool("telemetry", false, "record pipeline telemetry and print periodic one-line summaries to stderr")
	workers := fs.Int("workers", 0, "experiment fan-out and encoder pool width (0 = GOMAXPROCS, 1 = serial); tables are identical at any width")
	speedup := fs.Bool("speedup", true, "measure serial-vs-parallel encoder speedup and record it in -json")
	pipelineDepth := fs.Int("pipeline-depth", 3, "frame-pipeline depth for the pipeline-speedup measurement (0 disables)")
	throughput := fs.Bool("throughput", false, "measure sustained streaming-encode throughput (fresh vs pooled) and record it in -json")
	throughputSecs := fs.Float64("throughput-secs", 3, "wall-clock seconds per sustained-throughput run")
	streams := fs.Int("streams", 0, "run the multi-stream packing ladder up to N concurrent encoders (0 disables; the 1/4/16/64 ladder is filtered to ≤ N)")
	streamsSecs := fs.Float64("streams-secs", 2, "wall-clock seconds per packing-ladder rung")
	runtimeLog := fs.String("runtime-log", "", "write periodic runtime snapshots (JSONL) during -streams for divedoctor -runtime")
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments.SetWorkers(*workers)
	var scale experiments.Scale
	switch *scaleName {
	case "smoke":
		scale = experiments.ScaleSmoke
	case "default":
		scale = experiments.ScaleDefault
	case "full":
		scale = experiments.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	var rec *obs.Recorder
	if *telemetry {
		rec = obs.NewRecorder(4096)
		obs.SetDefault(rec)
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(10 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					fmt.Fprintln(os.Stderr, "telemetry:", rec.Summary())
				case <-stop:
					return
				}
			}
		}()
	}

	// results accumulates the machine-readable output for -json.
	results := &benchResults{
		Scale: scale.String(), Seed: *seed,
		RunMeta:        collectRunMeta(*workers, scale.String()),
		ExperimentSecs: map[string]float64{},
	}

	type exp struct {
		id  string
		run func() (*experiments.Table, error)
	}
	exps := []exp{
		{"t1", func() (*experiments.Table, error) {
			return experiments.RenderTableI(experiments.TableI(scale, *seed)), nil
		}},
		{"f6", func() (*experiments.Table, error) {
			r, err := experiments.Fig6EgoMotion(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig6(r), nil
		}},
		{"f7", func() (*experiments.Table, error) {
			r, err := experiments.Fig7RSampling(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig7(r), nil
		}},
		{"f9", func() (*experiments.Table, error) {
			rows, err := experiments.Fig9MotionEstimation(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig9(rows), nil
		}},
		{"f10", func() (*experiments.Table, error) {
			rows, err := experiments.Fig10SampleCount(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig10(rows), nil
		}},
		{"f11", func() (*experiments.Table, error) {
			rows, err := experiments.Fig11QPAssignment(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig11(rows), nil
		}},
		{"f12", func() (*experiments.Table, error) {
			rows, err := experiments.Fig12Foreground(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig12(rows), nil
		}},
		{"f13", func() (*experiments.Table, error) {
			rows, err := experiments.Fig13OfflineTracking(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig13(rows), nil
		}},
		{"f14", func() (*experiments.Table, error) {
			rows, err := experiments.Fig14MotionStates(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFig14(rows), nil
		}},
		{"f16", func() (*experiments.Table, error) {
			rows, err := experiments.Fig16EndToEndRobotCar(scale, *seed)
			if err != nil {
				return nil, err
			}
			results.EndToEnd = append(results.EndToEnd, rows...)
			return experiments.RenderEndToEnd("Fig 16: end-to-end comparison, RobotCar", rows), nil
		}},
		{"abl", func() (*experiments.Table, error) {
			rows, err := experiments.AblationRotation(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderAblation(rows), nil
		}},
		{"abl2", func() (*experiments.Table, error) {
			rows, err := experiments.AblationSubPel(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderSubPelAblation(rows), nil
		}},
		{"night", func() (*experiments.Table, error) {
			rows, err := experiments.NightStudy(scale, *seed)
			if err != nil {
				return nil, err
			}
			return experiments.RenderNight(rows), nil
		}},
		{"f17", func() (*experiments.Table, error) {
			rows, err := experiments.Fig17EndToEndNuScenes(scale, *seed)
			if err != nil {
				return nil, err
			}
			results.EndToEnd = append(results.EndToEnd, rows...)
			return experiments.RenderEndToEnd("Fig 17: end-to-end comparison, nuScenes", rows), nil
		}},
	}

	fmt.Printf("divebench: scale=%s seed=%d\n\n", scale, *seed)
	for _, e := range exps {
		if !selected(e.id) {
			continue
		}
		t0 := time.Now()
		table, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		table.Fprint(os.Stdout)
		took := time.Since(t0).Seconds()
		results.ExperimentSecs[e.id] = took
		fmt.Printf("[%s took %.1fs]\n\n", e.id, took)
	}

	if *speedup && *jsonPath != "" {
		t0 := time.Now()
		sp, err := experiments.EncodeSpeedup(scale, *seed, *workers)
		if err != nil {
			return fmt.Errorf("speedup: %w", err)
		}
		results.Speedup = &sp
		results.ExperimentSecs["speedup"] = time.Since(t0).Seconds()
		fmt.Printf("encoder speedup: %.2fx (%.1f -> %.1f ms/frame, %d workers)\n\n",
			sp.Speedup, sp.SerialMs, sp.ParallelMs, sp.Workers)
	}

	if *speedup && *jsonPath != "" && *pipelineDepth >= 2 {
		t0 := time.Now()
		pp, err := experiments.PipelineSpeedup(scale, *seed, *workers, *pipelineDepth)
		if err != nil {
			return fmt.Errorf("pipeline speedup: %w", err)
		}
		results.Pipeline = &pp
		results.ExperimentSecs["pipeline_speedup"] = time.Since(t0).Seconds()
		fmt.Printf("pipeline speedup: %.2fx at depth %d (%.1f -> %.1f ms/frame, %.2f frames in flight mean, %d peak)\n\n",
			pp.Speedup, pp.Depth, pp.SerialMs, pp.PipelinedMs, pp.MeanInFlight, pp.MaxInFlight)
	}

	if *throughput {
		t0 := time.Now()
		tp, err := experiments.SustainedThroughput(scale, *seed, *throughputSecs)
		if err != nil {
			return fmt.Errorf("throughput: %w", err)
		}
		results.Throughput = &tp
		results.ExperimentSecs["throughput"] = time.Since(t0).Seconds()
		fmt.Printf("sustained throughput %dx%d: fresh %.1f fps (%.2f allocs/frame), pooled %.1f fps (%.2f allocs/frame), %.2fx\n\n",
			tp.Width, tp.Height, tp.Fresh.FPS, tp.Fresh.AllocsPerFrame,
			tp.Pooled.FPS, tp.Pooled.AllocsPerFrame, tp.PooledSpeedup)
	}

	if *streams > 0 {
		t0 := time.Now()
		var logW *os.File
		if *runtimeLog != "" {
			f, err := os.Create(*runtimeLog)
			if err != nil {
				return fmt.Errorf("streams runtime log: %w", err)
			}
			logW = f
		}
		ladder := experiments.DefaultStreamLadder(*streams)
		ms, err := experiments.MultiStreamPacking(scale, *seed, *streamsSecs, ladder, logWriter(logW))
		if logW != nil {
			logW.Close()
		}
		if err != nil {
			return fmt.Errorf("streams: %w", err)
		}
		results.MultiStream = &ms
		results.ExperimentSecs["streams"] = time.Since(t0).Seconds()
		experiments.RenderMultiStream(ms).Fprint(os.Stdout)
		fmt.Println()
	}

	if *jsonPath != "" {
		if rec != nil {
			results.Telemetry = rec.Snapshot()
		}
		// Runtime shape of the producing process (heap, GC pauses,
		// goroutines): with RunMeta it lets an analyzer tell a code
		// regression from memory pressure on the bench machine.
		rt := obs.CollectRuntimeStats()
		results.Runtime = &rt
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// benchResults is the schema of the -json output. EndToEnd holds the
// per-profile, per-scheme rows of the f16/f17 comparisons (bitrate, AP,
// p50/p95 latency); Telemetry is the recorder snapshot when -telemetry
// was set (stage-duration histograms with quantiles, counters, gauges).
type benchResults struct {
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	// RunMeta pins the environment that produced the numbers (Go version,
	// machine shape, -workers, git commit) so analyzers can tell a code
	// regression from a machine change.
	RunMeta        obs.RunMeta               `json:"run_meta"`
	ExperimentSecs map[string]float64        `json:"experiment_secs"`
	EndToEnd       []experiments.EndToEndRow `json:"end_to_end,omitempty"`
	// Speedup is the measured serial-vs-parallel encoder throughput ratio
	// on this machine (bit-exact identical bitstreams both ways).
	Speedup *experiments.SpeedupResult `json:"encode_speedup,omitempty"`
	// Pipeline is the frame-level pipeline throughput ratio (capture ∥
	// analyze ∥ emit, byte-exact identical bitstreams both ways) with the
	// achieved frames-in-flight occupancy.
	Pipeline *experiments.PipelineResult `json:"pipeline_speedup,omitempty"`
	// Throughput is the sustained streaming-encode measurement (-throughput):
	// frames/sec/core and per-frame heap allocation rates, fresh vs pooled.
	Throughput *experiments.ThroughputResult `json:"throughput,omitempty"`
	// MultiStream is the -streams packing ladder: aggregate frames/sec/core
	// and GC co-tenancy at 1/4/16/64 concurrent pooled encoders.
	MultiStream *experiments.MultiStreamResult `json:"multistream,omitempty"`
	Telemetry   *obs.Snapshot                  `json:"telemetry,omitempty"`
	// Runtime captures the Go runtime at the end of the run — live heap,
	// GC pause p99, goroutine count — sampled via runtime/metrics.
	Runtime *obs.RuntimeStats `json:"runtime,omitempty"`
}
