// Command benchmark is the repository's benchmark: four workloads (agent on a
// clear and on a tight simulated link, server under replay, the whole system
// in lock-step over loopback), the end-to-end metrics a user of DiVE would
// see, and a traced run that splits each frame's time by layer. It measures
// every layer from outside, by timing calls into exported functions.
//
// It is a module of its own; run.sh in this directory builds and runs it:
//
//	bash benchmark/run.sh                       every workload, untraced then traced
//	bash benchmark/run.sh -out results.json     … and keep the numbers
//	bash benchmark/run.sh -compare a.json b.json
//
// The driver's form runs one workload and ends with one JSON line:
//
//	bash benchmark/run.sh --workload agent_clear --seed 7 --seconds 10 --trace 0
//
// See README.md in this directory for the metrics and what moves them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options are the command line of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	repeat   int
	out      string
	traceOut string
	// tracers are the traced runs' spans, written to traceOut at exit.
	tracers []*tracer
}

// loadConns is the number of load-generating connections of server_replay:
// min(nproc, 4), so the generator never outnumbers the processors by much.
func loadConns() int { return min(runtime.NumCPU(), 4) }

func (o *options) clipSeconds() float64 {
	if o.quick {
		return quickClipSeconds
	}
	return clipSeconds
}

// setups is how often set-up is repeated; setup_s is the median. A traced
// run does not report it and sets up once.
func (o *options) setups() int {
	if o.trace || o.quick {
		return 1
	}
	return 3
}

// measure is the shape of every untraced run: set-up runs setups() times,
// each on its own clip set, and after each a share of the timed budget is
// spent on passes (at least one) over what the first set-up left. A run's
// timed passes so span the whole run, not its last ten seconds: the
// least-of-the-repeats estimator wants repeats far apart, because the slow
// phases of a shared machine last longer than a pass. setup keeps what set 0
// built and discards the rest; pass runs one timed pass. It returns each
// set-up's time. A traced run sets up only: it alternates its own passes
// afterwards.
func (o *options) measure(setup func(set int) error, pass func() error) ([]float64, error) {
	var setupS []float64
	timed := time.Duration(0)
	for k, n := 0, o.setups(); k < n; k++ {
		t0 := time.Now()
		if err := setup(k); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if o.trace {
			continue
		}
		runtime.GC()
		budget := o.seconds * float64(k+1) / float64(n)
		for first := true; first || timed.Seconds() < budget; first = false {
			t1 := time.Now()
			if err := pass(); err != nil {
				return nil, err
			}
			timed += time.Since(t1)
		}
	}
	return setupS, nil
}

// keepTrace holds on to a traced run's spans when -trace-out asks for them.
func (o *options) keepTrace(tracers ...*tracer) {
	if o.traceOut != "" {
		o.tracers = append(o.tracers, tracers...)
	}
}

// runWorkload runs one workload once.
func runWorkload(o *options, name string) (*result, error) {
	start := time.Now()
	var res *result
	var err error
	switch name {
	case wlAgentClear, wlAgentTight:
		res, err = runAgentWorkload(o, name)
	case wlServerReplay:
		res, err = runServerReplay(o)
	case wlLiveLockstep:
		res, err = runLiveLockstep(o)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run: agent_clear, agent_tight, server_replay, live_lockstep or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long each run measures, after set-up")
	fs.IntVar(&trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; -1 (with -workload all): both")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: 2 s clips, one set-up, one pass")
	fs.IntVar(&o.repeat, "repeat", 1, "run each workload this many times and report medians and quartiles")
	fs.StringVar(&o.out, "out", "", "write the results as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans as JSON lines to this file")
	fs.BoolVar(&compare, "compare", false, "compare two results files: -compare base.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare base.json change.json")
			return 2
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1))
	}
	if o.quick {
		o.seconds = 0
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	} else if trace < 0 {
		trace = 0
	}
	modes := []bool{trace == 1}
	if trace < 0 {
		modes = []bool{false, true}
	}

	file := &resultsFile{RunMeta: newRunMeta(o)}
	var last *result
	code := 0
	for rep := 0; rep < max(o.repeat, 1); rep++ {
		for _, name := range names {
			for _, traced := range modes {
				o.trace = traced
				res, err := runWorkload(o, name)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				file.add(res)
				if !res.Correct {
					code = 1
				}
				last = res
			}
		}
	}
	fmt.Fprintf(stdout, "run_meta: %+v\n", file.RunMeta)
	file.print(stdout)
	if o.traceOut != "" {
		if err := writeJSONL(o.traceOut, o.tracers); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.out != "" {
		if err := file.write(o.out); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(names) == 1 && len(modes) == 1 {
		line, err := last.driverLine()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
