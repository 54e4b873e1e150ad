// Command divefleet runs the deterministic fleet simulator: N synthetic
// agents streaming against M simulated edge servers, every session with its
// own telemetry recorder and SLO window, folded each virtual second into
// fleet rollups — aggregate throughput, merged latency quantiles,
// per-profile breakdowns, fleet error-budget burn and a straggler table.
//
// Usage:
//
//	divefleet [-agents 50] [-servers 1] [-duration 30] [-seed 1]
//	          [-chaos outage-burst] [-slow 3,17] [-cores 8]
//	          [-json] [-o report.json]
//	divefleet -live [-agents 3] [-servers 1] [-duration 1] [-seed 1] [-json]
//	divefleet -live -cluster 3 [-kill-frac 0.5] [-journal-dir DIR] [...]
//
// The default (model) mode runs on a virtual clock with seeded link, frame
// and contention models: the same flags and seed produce a byte-identical
// report. -slow scripts the listed agents onto crippled links (5% bandwidth,
// +300ms service), the straggler pathology the rollup table must surface;
// -chaos runs every agent under a per-agent-seeded variant of the named
// standard chaos scenario. The report's rollup series is what divedoctor
// -fleet diagnoses.
//
// -live runs real edge.Client sessions over loopback TCP against real
// edge.Server instances (wall-clock, non-deterministic), or with -cluster
// against N members behind the health-routed balancer, which adds per-server
// rollup rows and a migration summary. -kill-frac kills a seed-chosen member
// once its sessions have streamed that fraction of their frames; they must
// fail over with a bounded re-detection gap. -journal-dir exports each
// session's decision journal as JSONL for divedoctor. A flag the chosen mode
// does not read is rejected, as is a -duration outside
// (0, world.MaxClipDuration] seconds, a -cores that is not finite and
// positive, and -agents or -servers below 1.
//
// Without -json a human summary is printed: the final rollup, per-profile
// table and straggler table. Exit status: 0 on a clean run, 1 when the
// final rollup has stragglers or the fleet burn rate exceeds 1, 2 on usage
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"dive/internal/chaos"
	"dive/internal/fleet"
	"dive/internal/obs"
	"dive/internal/world"
)

func main() {
	rep, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divefleet:", err)
		os.Exit(2)
	}
	if f := rep.Final(); len(f.Stragglers) > 0 || f.FleetBurn > 1 {
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (*fleet.Report, error) {
	fs := flag.NewFlagSet("divefleet", flag.ContinueOnError)
	agents := fs.Int("agents", 50, "fleet size")
	servers := fs.Int("servers", 1, "edge server instances (sessions assigned round-robin)")
	duration := fs.Float64("duration", 30, fmt.Sprintf("run length in virtual seconds (wall-clock seconds with -live), at most %d", world.MaxClipDuration))
	seed := fs.Int64("seed", 1, "master seed; same flags + same seed = byte-identical report")
	chaosName := fs.String("chaos", "", "standard chaos scenario every agent runs a seeded variant of ("+chaos.ScenarioNames()+")")
	slow := fs.String("slow", "", "comma-separated agent indices scripted onto crippled links (straggler pathology)")
	cores := fs.Float64("cores", 8, "per-server service capacity; overload inflates co-tenant latency")
	asJSON := fs.Bool("json", false, "print the full report as JSON")
	out := fs.String("o", "", "write the report to this file instead of stdout (implies -json)")
	live := fs.Bool("live", false, "run real edge clients/servers over loopback instead of the model")
	clusterN := fs.Int("cluster", 0, "with -live: run this many members behind the health-routed balancer")
	killFrac := fs.Float64("kill-frac", 0, "with -cluster: kill a seeded member once its sessions streamed this fraction of their frames")
	journalDir := fs.String("journal-dir", "", "with -live: export per-session decision journals (JSONL) to this directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// Flags this mode would ignore, that could never act, or whose value the
	// run would replace with a default or fail to encode, fail by name.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range []struct {
		bad   bool
		names []string
		why   string
	}{
		{*live, []string{"chaos", "slow", "cores"}, "does not apply with -live"},
		{!*live, []string{"cluster", "kill-frac", "journal-dir"}, "only applies with -live"},
		{*clusterN <= 0, []string{"kill-frac"}, "only applies with -cluster"},
		{!(*killFrac > 0 && *killFrac <= 1), []string{"kill-frac"}, "must be in (0, 1]"},
		{*clusterN > 0, []string{"servers"}, "does not apply with -cluster"},
		{!(*duration > 0 && *duration <= world.MaxClipDuration), []string{"duration"}, fmt.Sprintf("must be in (0, %d] seconds", world.MaxClipDuration)},
		{!(*cores > 0 && !math.IsInf(*cores, 1)), []string{"cores"}, "must be finite and > 0"},
		{*agents < 1, []string{"agents"}, "must be at least 1"},
		{*servers < 1, []string{"servers"}, "must be at least 1"},
	} {
		for _, name := range r.names {
			if r.bad && set[name] {
				return nil, fmt.Errorf("-%s %s", name, r.why)
			}
		}
	}

	slowIdx, err := parseIndexList(*slow)
	if err != nil {
		return nil, fmt.Errorf("-slow: %w", err)
	}

	var rep *fleet.Report
	switch {
	case *live:
		// RunLive logs each failed session as "session <i>: <err>".
		rep, _, err = fleet.RunLive(fleet.LiveSpec{
			Agents: *agents, Servers: *servers, Duration: *duration,
			Seed: *seed, Cluster: *clusterN, KillAtFrac: *killFrac,
			JournalDir: *journalDir,
			Logf: func(format string, a ...interface{}) {
				fmt.Fprintf(os.Stderr, "divefleet: "+format+"\n", a...)
			},
		})
		if err != nil {
			return nil, err
		}
	default:
		rep, err = fleet.Run(fleet.Spec{
			Agents: *agents, Servers: *servers, Duration: *duration,
			Seed: *seed, Chaos: *chaosName, SlowAgents: slowIdx,
			ServerCores: *cores,
		})
		if err != nil {
			return nil, err
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		w = f
	}
	if *asJSON || *out != "" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return rep, enc.Encode(rep)
	}
	printReport(w, rep)
	return rep, nil
}

func printReport(w io.Writer, rep *fleet.Report) {
	f := rep.Final()
	where := fmt.Sprintf("%d server(s)", rep.Spec.Servers)
	if rep.Spec.Cluster > 0 {
		where = fmt.Sprintf("a %d-member cluster", rep.Spec.Cluster)
	}
	fmt.Fprintf(w, "fleet: %d sessions on %s, %.0fs, seed %d",
		rep.Spec.Agents, where, rep.Spec.Duration, rep.Spec.Seed)
	if rep.Spec.Chaos != "" {
		fmt.Fprintf(w, ", chaos %s", rep.Spec.Chaos)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "throughput: %d frames (%.1f frames/s), %d bytes\n",
		f.FramesTotal, f.FramesPerSec, f.BytesTotal)
	fmt.Fprintf(w, "latency:    p50 %.0f ms, p95 %.0f ms, p99 %.0f ms (session median p99 %.0f ms)\n",
		f.LatencyP50Sec*1000, f.LatencyP95Sec*1000, f.LatencyP99Sec*1000, f.MedianP99Sec*1000)
	fmt.Fprintf(w, "slo:        fleet burn %.2fx, %d/%d sessions unhealthy, outage %.1f%%\n",
		f.FleetBurn, f.Unhealthy, f.Sessions, f.OutageFrac*100)
	if rep.Live != nil && (rep.Live.Migrations > 0 || rep.Spec.Cluster > 0) {
		fmt.Fprintf(w, "migrations: %d (%d forced, %d redirects), worst re-detection gap %.0f ms\n",
			rep.Live.Migrations, rep.Live.ForcedMigrations, rep.Live.Redirects,
			rep.Live.MaxMigrationGapSec*1000)
	}
	if len(f.PerServer) > 0 {
		fmt.Fprintln(w, "per-server:")
		for _, s := range f.PerServer {
			hb := "never"
			if s.LastHeartbeatAgeSec >= 0 {
				hb = fmt.Sprintf("%.0f ms ago", s.LastHeartbeatAgeSec*1000)
			}
			fmt.Fprintf(w, "  %-10s %-8s %3d sessions  mig in/out %d/%d  heartbeat %s\n",
				s.Server, s.State, s.Sessions, s.MigrationsIn, s.MigrationsOut, hb)
		}
	}
	if len(f.PerProfile) > 0 {
		fmt.Fprintln(w, "per-profile:")
		for _, p := range f.PerProfile {
			fmt.Fprintf(w, "  %-10s %3d sessions  %8d frames  p99 %6.0f ms  burn %.2fx  unhealthy %d\n",
				p.Profile, p.Sessions, p.FramesTotal, p.LatencyP99Sec*1000, p.MeanBurn, p.Unhealthy)
		}
	}
	if len(f.Stragglers) == 0 {
		fmt.Fprintln(w, "stragglers: none")
		return
	}
	fmt.Fprintf(w, "stragglers (> %.0fx the fleet median):\n", obs.FleetStragglerFactor)
	for _, s := range f.Stragglers {
		fmt.Fprintf(w, "  %-16s %-10s %6.1fx  %-8s p99 %6.0f ms  burn %6.1fx  %d frames\n",
			s.Session, s.Profile, s.Factor, s.Reason, s.LatencyP99Sec*1000, s.BurnRate, s.Frames)
	}
}

// parseIndexList parses "3,17" into []int{3, 17}.
func parseIndexList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad index %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
