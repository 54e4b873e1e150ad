// Command divetrace runs the full DiVE scheme (sim.DiVE: agent, head-of-queue
// outage timer, simulated uplink, edge decode and detect) over a synthetic
// clip — the loop every figure runs — and exports what its telemetry
// recorded, for plotting, debugging and cmd/divedoctor.
//
// Usage:
//
//	divetrace [-profile nuScenes] [-seed 1] [-duration 4]
//	          [-mbps 2 | -chaos outage-burst] [-format journal|jsonl|spans] [-o out.jsonl]
//	divetrace -serve 127.0.0.1:7061 [-pace 30ms] [-linger 5s] [-profile ...]
//	          [-seed ...] [-duration ...] [-mbps ... | -chaos ...]
//
// The uplink is a constant -mbps link, or with -chaos a named scenario from
// the standard chaos suite (chaos.StandardScenarios; -h lists the names);
// -mbps is rejected with -chaos, since the scenario sets the link.
//
// -format journal (the default) emits the per-frame decision journal, spans
// the per-frame trace spans and jsonl the frame-lifecycle records (journal ⨝
// agent spans: stage durations in milliseconds, rate-control internals,
// uplink ack) — the /debug/journal, /debug/spans and /debug/frames schemas.
//
// -serve serves the same run's telemetry over HTTP instead of writing it
// (GET / lists the endpoints), paced to wall-clock (-pace per frame) so
// divedoctor -follow sees the journal grow; -linger keeps the endpoint up
// after the run so followers can drain the tail. -pace and -linger are
// rejected without -serve.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"dive/internal/chaos"
	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/sim"
	"dive/internal/world"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "divetrace:", err)
		os.Exit(1)
	}
}

// formats writes each -format from the run's recorder.
var formats = map[string]func(*obs.Recorder, io.Writer) error{
	"journal": func(rec *obs.Recorder, w io.Writer) error { return rec.Journal().WriteJSONL(w) },
	"spans":   func(rec *obs.Recorder, w io.Writer) error { return rec.Spans().WriteJSONL(w) },
	"jsonl":   func(rec *obs.Recorder, w io.Writer) error { return obs.WriteJSONL(w, rec.FrameRecords()) },
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("divetrace", flag.ContinueOnError)
	profile := fs.String("profile", "nuScenes", "clip profile: nuScenes, nuScenes-night, RobotCar or KITTI")
	seed := fs.Int64("seed", 1, "clip seed")
	duration := fs.Float64("duration", 4, fmt.Sprintf("clip duration in seconds, at most %d", world.MaxClipDuration))
	mbps := fs.Float64("mbps", 2, "constant uplink bandwidth (rejected with -chaos)")
	out := fs.String("o", "", "output file (default stdout)")
	format := fs.String("format", "journal", "output format: journal (decision journal), jsonl (frame-lifecycle records) or spans (trace spans)")
	serve := fs.String("serve", "", "serve live telemetry on this address while running (e.g. 127.0.0.1:7061); disables file output")
	chaosName := fs.String("chaos", "", "run under a standard chaos scenario ("+chaos.ScenarioNames()+") instead of a constant link")
	pace := fs.Duration("pace", 30*time.Millisecond, "with -serve: wall-clock delay per frame, so followers see the journal grow")
	linger := fs.Duration("linger", 5*time.Second, "with -serve: keep the endpoint up this long after the run ends, so followers can drain the tail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flags that would be ignored, or would crash the render or fail the run
	// only after the whole clip, are rejected up front, by name.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"pace", "linger"} {
		if set[name] && *serve == "" {
			return fmt.Errorf("-%s only applies with -serve", name)
		}
	}
	switch {
	case !(*duration > 0 && *duration <= world.MaxClipDuration):
		return fmt.Errorf("-duration must be in (0, %d] seconds, got %g", world.MaxClipDuration, *duration)
	case !(*mbps > 0) || math.IsInf(*mbps, 1):
		return fmt.Errorf("-mbps must be positive and finite, got %g", *mbps)
	case *chaosName != "" && set["mbps"]:
		return fmt.Errorf("-mbps does not apply with -chaos (the scenario sets the link)")
	}
	write, ok := formats[*format]
	if !ok {
		fs.Usage()
		return fmt.Errorf("unknown -format %q (supported: journal, jsonl, spans)", *format)
	}
	p, ok := world.ProfileByName(*profile)
	if !ok {
		return fmt.Errorf("unknown profile %q", *profile)
	}
	p.ClipDuration = *duration
	trace := netsim.Trace(netsim.ConstantTrace(netsim.Mbps(*mbps)))
	if *chaosName != "" {
		sc, err := chaos.FindScenario(*chaosName, *seed, *duration)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		trace = sc.Trace
	}

	clip := world.GenerateClip(p, *seed)
	rec := obs.NewRecorder(clip.NumFrames())
	link := netsim.NewLink(trace, 0.012)
	scheme := &sim.DiVE{ConfigFn: func(cfg *core.AgentConfig) { cfg.Obs = rec }}
	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		defer ln.Close()
		go http.Serve(ln, rec.Handler())
		fmt.Fprintf(os.Stderr, "divetrace: serving telemetry on http://%s\n", ln.Addr())
		scheme.FrameHook = func(int) { time.Sleep(*pace) }
	} else if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		stdout = f
	}

	if _, err := scheme.Run(clip, link, sim.NewEnv(*seed)); err != nil {
		return err
	}
	if *serve == "" {
		return write(rec, stdout)
	}
	fmt.Fprintf(os.Stderr, "divetrace: run complete (%d frames), lingering %s\n", clip.NumFrames(), *linger)
	time.Sleep(*linger)
	return nil
}
