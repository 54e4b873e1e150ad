// Command diveagent runs a DiVE mobile agent against a live diveserver: it
// renders a synthetic drive, encodes it differentially, streams the
// bitstreams over TCP through the resilient edge client, and reports a final
// accuracy and robustness summary.
//
// Usage:
//
//	diveagent [-addr 127.0.0.1:7060] [-profile nuScenes] [-seed 1]
//	          [-duration 4] [-rate 2.0] [-telemetry :7061] [-window N]
//	          [-ack-timeout 1s] [-max-reconnects 8]
//
// -rate throttles the uplink to the given Mbps (0 = unthrottled), pacing
// writes so the bandwidth estimator sees realistic feedback; a throttled
// agent's estimator starts from that rate.
//
// -window >= 2 lets up to that many frames be in flight to the server at
// once: frame N's server inference and downlink overlap frame N+1's encode
// instead of blocking it. A window of 1 (the default) is the classic
// lock-step loop.
//
// The session survives the link failing under it: a frame unacknowledged
// past -ack-timeout is declared outaged and covered by local MV tracking
// (the paper's MOT fallback), disconnects trigger reconnects with
// exponential backoff + jitter and a session-resume handshake, server NACKs
// force keyframes, and a link-health ladder degrades encode quality (QP
// floor, budget cut, frame skip, MOT-only) before the link collapses
// entirely. Every transition is journaled for divedoctor.
//
// The seed contract: the agent renders its clip from (-profile, -seed,
// -duration) and sends exactly those values in the Hello handshake; the
// server re-renders the identical clip from them. There is no separate
// server-side seed flag — agreement is automatic, which is what lets the
// server score detections against the pristine frames without any pixels
// crossing the wire.
//
// -telemetry serves the telemetry HTTP surface on the given address; GET /
// lists its endpoints. divedoctor -follow -url grades the run from it while
// the clip is still streaming.
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"dive/internal/core"
	"dive/internal/edge"
	"dive/internal/metrics"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/sim"
	"dive/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "diveagent:", err)
		os.Exit(1)
	}
}

// agentConfig is the agent's configuration for clip: the defaults for its
// geometry, the seed and the recorder, and — when -rate throttles the
// uplink (rate > 0) — a bandwidth prior of that rate, so the estimator
// starts from the rate the writes are paced at.
func agentConfig(clip *world.Clip, seed int64, rate float64, rec *obs.Recorder) core.AgentConfig {
	cfg := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Seed = seed
	cfg.Obs = rec
	if rate > 0 {
		cfg.BandwidthPrior = netsim.Mbps(rate)
	}
	return cfg
}

func run(args []string) error {
	fs := flag.NewFlagSet("diveagent", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7060", "edge server address")
	profile := fs.String("profile", "nuScenes", "clip profile: nuScenes, nuScenes-night, RobotCar or KITTI")
	seed := fs.Int64("seed", 1, "clip seed; sent to the server in the handshake so both sides render the same clip")
	duration := fs.Float64("duration", 4, fmt.Sprintf("clip duration in seconds, at most %d", world.MaxClipDuration))
	rate := fs.Float64("rate", 2.0, "uplink throttle in Mbps (0 = unthrottled)")
	telemetry := fs.String("telemetry", "", "serve telemetry on this address (GET / lists the endpoints), e.g. :7061")
	window := fs.Int("window", 1, "max frames in flight to the server (1 = lock-step request/response)")
	ackTimeout := fs.Duration("ack-timeout", time.Second, "per-frame ack deadline before the MOT outage fallback covers it")
	maxReconnects := fs.Int("max-reconnects", 8, "consecutive failed reconnect attempts before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A value the client would silently replace by a default, or that would
	// break the run, fails by name before the clip renders.
	switch {
	case !(*duration > 0 && *duration <= world.MaxClipDuration):
		return fmt.Errorf("-duration must be in (0, %d] seconds, got %g", world.MaxClipDuration, *duration)
	case !(*rate >= 0) || math.IsInf(*rate, 1):
		return fmt.Errorf("-rate must be finite and >= 0 (0 = unthrottled), got %g", *rate)
	case *window < 1:
		return fmt.Errorf("-window must be at least 1 (1 = lock-step), got %d", *window)
	case *ackTimeout <= 0:
		return fmt.Errorf("-ack-timeout must be positive, got %v", *ackTimeout)
	case *maxReconnects < 1:
		return fmt.Errorf("-max-reconnects must be at least 1, got %d", *maxReconnects)
	}
	wp, ok := world.ProfileByName(*profile)
	if !ok {
		return fmt.Errorf("unknown profile %q", *profile)
	}
	wp.ClipDuration = *duration
	fmt.Printf("rendering %s clip (%.0fs, seed %d)...\n", wp.Name, *duration, *seed)
	clip := world.GenerateClip(wp, *seed)

	rec := obs.NewRecorder(clip.NumFrames())
	agent, err := core.NewAgent(agentConfig(clip, *seed, *rate, rec))
	if err != nil {
		return err
	}
	if *telemetry != "" {
		ln, err := net.Listen("tcp", *telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listen: %w", err)
		}
		defer ln.Close()
		fmt.Printf("telemetry on http://%s/ (GET / lists the endpoints)\n", ln.Addr())
		go http.Serve(ln, rec.Handler())
	}

	client := edge.NewClient(edge.ClientConfig{
		Addr: *addr, Profile: wp.Name, Seed: *seed, Duration: *duration,
		Window:     *window,
		AckTimeout: *ackTimeout,
		PaceBps:    netsim.Mbps(*rate),
		Backoff:    edge.BackoffConfig{MaxAttempts: *maxReconnects},
		Logf: func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		},
		Obs: rec,
	}, agent)

	start := time.Now()
	dets, stats, runErr := client.Run(clip)
	wall := time.Since(start).Seconds()

	// Per-frame recap from the decision journal: encode decisions plus the
	// robustness events (outage, skip, reconnects, ladder level).
	for _, j := range rec.Journal().Snapshot() {
		note := ""
		if j.Outage {
			note += " OUTAGE"
		}
		if j.SkippedSend {
			note += " SKIP"
		}
		if j.NackKeyframe {
			note += " NACK"
		}
		if j.ReconnectAttempts > 0 {
			note += fmt.Sprintf(" reconnects=%d(%.2fs)", j.ReconnectAttempts, j.BackoffSec)
		}
		if j.DegradeLevel > 0 {
			note += fmt.Sprintf(" ladder=%s", core.LadderLevel(j.DegradeLevel))
		}
		fmt.Printf("frame %3d: %6.1f kbit qp=%2d fg=%4.1f%% η=%.2f%s\n",
			j.Frame, float64(j.Bits)/1000, j.BaseQP, j.FGFraction*100, j.Eta, note)
	}

	// Accuracy against the oracle (detections on raw frames). A run that
	// failed mid-stream still scores the frames it covered.
	env := sim.NewEnv(*seed)
	oracle := sim.OracleDetections(clip, env)
	mAP := metrics.MAP(dets, oracle, metrics.DefaultIoU)
	fmt.Printf("\nsummary: frames=%d uploaded=%d skipped=%d outages=%d reconnects=%d nacks=%d mAP=%.3f wall=%.1fs\n",
		stats.FramesProcessed, stats.FramesUploaded, stats.FramesSkipped,
		stats.OutageFrames, stats.Reconnects, stats.Nacks, mAP, wall)
	fmt.Printf("link: final health=%.2f ladder=%s\n", stats.FinalHealth, stats.FinalLevel)
	return runErr
}
