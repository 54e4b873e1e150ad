// Command divetrace runs the DiVE agent over a synthetic clip and dumps a
// per-frame CSV of everything the pipeline decided — η, ego-motion
// judgement, estimated rotation, FOE, foreground size, δ, base QP, bits and
// reconstruction PSNR — for plotting and debugging.
//
// Usage:
//
//	divetrace [-profile nuScenes] [-seed 1] [-duration 4] [-mbps 2] [-o out.csv]
//	          [-format csv|jsonl|journal|spans]
//	divetrace -serve 127.0.0.1:7061 [-chaos outage-burst] [-pace 30ms]
//	          [-linger 5s] [-profile ...] [-seed ...] [-duration ...]
//
// -serve turns divetrace into a live telemetry source: the run is paced to
// wall-clock (-pace per frame) while the telemetry HTTP surface serves it
// (GET / lists the endpoints) — a self-contained target for divedoctor
// -follow and for exercising the fleet observability stack without a real
// agent/server pair. -chaos picks a named scenario from the standard chaos suite (outage-burst,
// bandwidth-cliff, estimator-poison) as the link trace; without it the
// constant -mbps link is used. -linger keeps the endpoint up after the run
// finishes so followers can drain the journal tail. -chaos, -pace and
// -linger are rejected without -serve.
//
// -format jsonl emits the telemetry subsystem's frame-lifecycle records
// (one JSON object per frame: stage durations in milliseconds,
// rate-control internals, uplink ack) instead of the analysis CSV — the
// same schema served live at /debug/frames by diveagent -telemetry.
// -format journal emits the per-frame decision journal and -format spans
// the per-frame trace spans (the /debug/journal and /debug/spans schemas),
// both directly consumable by cmd/divedoctor. Unknown formats are rejected
// with a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"dive/internal/chaos"
	"dive/internal/core"
	"dive/internal/imgx"
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

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("divetrace", flag.ContinueOnError)
	profile := fs.String("profile", "nuScenes", "clip profile: nuScenes, nuScenes-night, RobotCar or KITTI")
	seed := fs.Int64("seed", 1, "clip seed")
	duration := fs.Float64("duration", 4, "clip duration in seconds")
	mbps := fs.Float64("mbps", 2, "simulated uplink bandwidth")
	out := fs.String("o", "", "output file (default stdout)")
	format := fs.String("format", "csv", "output format: csv, jsonl (frame-lifecycle records), journal (decision journal) or spans (trace spans)")
	serve := fs.String("serve", "", "serve live telemetry on this address while running (e.g. 127.0.0.1:7061); disables file output")
	chaosName := fs.String("chaos", "", "with -serve: run under a standard chaos scenario (outage-burst, bandwidth-cliff, estimator-poison) instead of a constant link")
	pace := fs.Duration("pace", 30*time.Millisecond, "with -serve: wall-clock delay per frame, so followers see the journal grow")
	linger := fs.Duration("linger", 5*time.Second, "with -serve: keep the endpoint up this long after the run ends, so followers can drain the tail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mbps <= 0 {
		return fmt.Errorf("-mbps must be positive, got %g", *mbps)
	}
	if *serve == "" {
		var serveOnly error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "chaos", "pace", "linger":
				serveOnly = fmt.Errorf("-%s only applies with -serve", f.Name)
			}
		})
		if serveOnly != nil {
			return serveOnly
		}
	}
	switch *format {
	case "csv", "jsonl", "journal", "spans":
	default:
		fs.Usage()
		return fmt.Errorf("unknown -format %q (supported: csv, jsonl, journal, spans)", *format)
	}

	p, ok := world.ProfileByName(*profile)
	if !ok {
		return fmt.Errorf("unknown profile %q", *profile)
	}
	p.ClipDuration = *duration

	if *serve != "" {
		return ServeLive(p, *seed, *mbps, *chaosName, *serve, *pace, *linger)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return Trace(p, *seed, netsim.Mbps(*mbps), *format, w)
}

// Trace generates the clip, runs the agent over a constant uplink and writes
// the selected format to w: "csv" a row of pipeline internals per frame, or —
// with a telemetry recorder attached — "jsonl" the frame-lifecycle view
// (journal ⨝ agent spans), "journal" the decision journal, "spans" the frame
// trace spans.
func Trace(p world.Profile, seed int64, uplinkBps float64, format string, w io.Writer) error {
	clip := world.GenerateClip(p, seed)
	cfg := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Seed = seed
	csv := format == "csv"
	var rec *obs.Recorder
	if !csv {
		rec = obs.NewRecorder(clip.NumFrames())
		cfg.Obs = rec
	}
	agent, err := core.NewAgent(cfg)
	if err != nil {
		return err
	}
	if csv {
		if _, err := fmt.Fprintln(w, "frame,time_s,state,eta,moving,rot_ok,phi_x,phi_y,foe_x,foe_y,fg_frac,fg_objects,reused,delta,base_qp,frame_type,bits,target_bits,est_bw_mbps,psnr_db"); err != nil {
			return err
		}
	}
	for i, frame := range clip.Frames {
		now := float64(i) / clip.FPS
		fr, err := agent.ProcessFrame(frame, now)
		if err != nil {
			return err
		}
		tx := float64(fr.Encoded.NumBits) / uplinkBps
		agent.OnTransmitComplete(now, now+tx, fr.Encoded.NumBits)
		if !csv {
			continue
		}
		fgFrac, fgObjs := 0.0, 0
		if fr.Foreground != nil {
			fgFrac = fr.Foreground.Fraction()
			fgObjs = len(fr.Foreground.Objects)
		}
		// Reconstruction quality as the server will see it (the encoder's
		// recon is bit-exact with the decoder output).
		psnr := imgx.PSNR(imgx.MSE(frame, agent.Reconstructed()))
		if _, err := fmt.Fprintf(w, "%d,%.4f,%s,%.4f,%t,%t,%.6f,%.6f,%.2f,%.2f,%.4f,%d,%t,%d,%d,%s,%d,%d,%.3f,%.2f\n",
			i, now, clip.Poses[i].State, fr.Eta, fr.Moving,
			fr.Rotation.OK, fr.Rotation.PhiX, fr.Rotation.PhiY,
			fr.FOE.X, fr.FOE.Y,
			fgFrac, fgObjs, fr.Reused,
			fr.Delta, fr.Encoded.BaseQP, fr.Encoded.Type,
			fr.Encoded.NumBits, fr.TargetBits,
			fr.EstimatedBandwidth/1e6, psnr,
		); err != nil {
			return err
		}
	}
	switch format {
	case "journal":
		return rec.Journal().WriteJSONL(w)
	case "spans":
		return rec.Spans().WriteJSONL(w)
	case "jsonl":
		return obs.WriteJSONL(w, rec.FrameRecords())
	}
	return nil
}

// ServeLive runs the full DiVE scheme (agent + simulated link) paced to
// wall-clock while serving its telemetry over HTTP. It is the self-contained
// target for divedoctor -follow — `make doctor-live` points one at the other.
func ServeLive(p world.Profile, seed int64, mbps float64, chaosName, addr string, pace, linger time.Duration) error {
	clip := world.GenerateClip(p, seed)
	rec := obs.NewRecorder(clip.NumFrames())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, rec.Handler())
	fmt.Fprintf(os.Stderr, "divetrace: serving telemetry on http://%s\n", ln.Addr())

	trace := netsim.Trace(netsim.ConstantTrace(netsim.Mbps(mbps)))
	if chaosName != "" {
		sc, err := findScenario(chaosName, seed, p.ClipDuration)
		if err != nil {
			return err
		}
		trace = sc.Trace
	}
	link := netsim.NewLink(trace, 0.012)
	link.Obs = rec

	scheme := &sim.DiVE{
		ConfigFn:  func(cfg *core.AgentConfig) { cfg.Obs = rec },
		FrameHook: func(int) { time.Sleep(pace) },
	}
	if _, err := scheme.Run(clip, link, sim.NewEnv(seed)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "divetrace: run complete (%d frames), lingering %s\n",
		clip.NumFrames(), linger)
	time.Sleep(linger)
	return nil
}

// findScenario resolves a chaos scenario by name from the standard suite.
func findScenario(name string, seed int64, duration float64) (chaos.Scenario, error) {
	all := chaos.StandardScenarios(seed, duration)
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name
		if sc.Name == name {
			return sc, nil
		}
	}
	return chaos.Scenario{}, fmt.Errorf("unknown -chaos scenario %q (available: %v)", name, names)
}
