package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dive/internal/chaos"
	"dive/internal/cluster"
	"dive/internal/core"
	"dive/internal/edge"
	"dive/internal/obs"
	"dive/internal/world"
)

// Live mode: a small fleet of real edge.Client sessions over loopback TCP
// against real edge.Server instances — the full wire protocol, reconnect
// machinery and degradation ladder, with the same aggregation plane as the
// model. Wall-clock timing makes this mode non-deterministic; it exists to
// validate end-to-end that the model's telemetry shape (per-session series,
// SLO windows, rollup fields) matches what the real stack emits. Keep fleets
// small: every session renders its reference clip on both ends.

// LiveSpec configures a live fleet run.
type LiveSpec struct {
	// Agents (default 3) and Servers (default 1); sessions are assigned
	// round-robin.
	Agents  int
	Servers int
	// Duration is the clip length in seconds (default 1).
	Duration float64
	Seed     int64
	// Cluster, when > 0, replaces the bare servers with an internal/cluster
	// balancer of that many members: sessions get rotated candidate dial
	// lists (round-robin placement with built-in failover), migrations are
	// folded into the aggregator, and every rollup carries per-server rows.
	// Servers is ignored in cluster mode.
	Cluster int
	// KillAtFrac, with Cluster > 0, kills a seeded member once the sessions
	// placed on it have streamed that fraction of their frames (the whole
	// fleet's, if it hosts none) — progress, not wall time, because unpaced
	// loopback sessions outrun the clock and each other.
	KillAtFrac float64
	// JournalDir, when set, exports each session's decision journal as
	// <dir>/<session>.jsonl after the run, ready for divedoctor grading.
	JournalDir string
	// Logf receives progress lines; nil silences the run.
	Logf func(format string, args ...interface{})
}

// liveRollupEvery is the wall-clock aggregation period of a live run.
const liveRollupEvery = 500 * time.Millisecond

// liveProfiles are the profiles sessions rotate through, by the name the edge
// handshake carries.
var liveProfiles = []string{"nuScenes", "RobotCar", "KITTI"}

// RunLive executes a live fleet run and returns its report plus the
// per-session run errors (nil entries for clean sessions), each also logged
// as "session <i>: <err>".
func RunLive(spec LiveSpec) (*Report, []error, error) {
	if spec.Agents <= 0 {
		spec.Agents = 3
	}
	if spec.Servers <= 0 {
		spec.Servers = 1
	}
	if spec.Duration <= 0 {
		spec.Duration = 1
	}
	logf := spec.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	agg := obs.NewFleetAggregator()

	// Servers: either a health-routed cluster or bare servers.
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	var (
		cl         *cluster.Cluster
		addrs      []string
		addrToName map[string]string
	)
	if spec.Cluster > 0 {
		var err error
		cl, err = cluster.New(cluster.Config{
			Members: spec.Cluster,
			Configure: func(i int, srv *edge.Server) {
				srv.Obs = obs.NewRecorder(256)
			},
			Logf: logf,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: cluster: %w", err)
		}
		cleanup = append(cleanup, cl.Close)
		addrToName = make(map[string]string, cl.Members())
		for _, st := range cl.Status() {
			addrs = append(addrs, st.Addr)
			addrToName[st.Addr] = st.Name
		}
	} else {
		addrs = make([]string, spec.Servers)
		for i := 0; i < spec.Servers; i++ {
			srv := edge.NewServer()
			srv.Obs = obs.NewRecorder(256)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return nil, nil, fmt.Errorf("fleet: server %d listen: %w", i, err)
			}
			go srv.Serve()
			srvRef := srv
			cleanup = append(cleanup, func() { srvRef.Shutdown(2 * time.Second) })
			addrs[i] = addr.String()
		}
	}

	// Agents: render clips up front (the slow part), then stream
	// concurrently.
	type session struct {
		name   string
		client *edge.Client
		clip   *world.Clip
		rec    *obs.Recorder
		stats  edge.ClientStats
	}
	sessions := make([]session, spec.Agents)
	totalFrames := 0
	for i := 0; i < spec.Agents; i++ {
		name := liveProfiles[i%len(liveProfiles)]
		p, _ := world.ProfileByName(name)
		p.ClipDuration = spec.Duration
		seed := spec.Seed + int64(i)
		clip := world.GenerateClip(p, seed)
		rec := obs.NewRecorder(256)
		cfg := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
		cfg.Obs = rec
		cfg.Seed = seed
		sess := fmt.Sprintf("%s-%d", name, seed)
		agent, err := core.NewAgent(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: agent %d: %w", i, err)
		}
		ccfg := edge.ClientConfig{
			Profile: name, Seed: seed, Duration: spec.Duration,
			AckTimeout: 2 * time.Second, Obs: rec,
		}
		if cl != nil {
			// Rotated candidate list: round-robin initial placement, with
			// every other member as a failover target behind it.
			rot := make([]string, len(addrs))
			for j := range addrs {
				rot[j] = addrs[(i+j)%len(addrs)]
			}
			ccfg.Addrs = rot
			ccfg.OnMigrate = func(from, to string, forced bool) {
				agg.NoteMigration(addrToName[from], addrToName[to])
				logf("fleet: session %s migrated %s -> %s (forced=%v)",
					sess, addrToName[from], addrToName[to], forced)
			}
		} else {
			ccfg.Addr = addrs[i%len(addrs)]
		}
		client := edge.NewClient(ccfg, agent)
		sessions[i] = session{name: sess, client: client, clip: clip, rec: rec}
		totalFrames += clip.NumFrames()
		agg.Register(sess, name, rec)
	}

	start := time.Now()
	errs := make([]error, spec.Agents)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, stats, err := sessions[i].client.Run(sessions[i].clip)
			sessions[i].stats = stats
			errs[i] = err
		}(i)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The kill drill: a seeded member dies mid-run. chaos.Victim picks it,
	// so the same seed always kills the same member;
	// KillAtFrac triggers on frame progress (unpaced loopback sessions
	// outrun wall time, so a fraction is how "mid-clip" is actually hit) —
	// the progress of the sessions placed on the victim, because sessions
	// advance at different rates and a fleet-wide count can pass the mark
	// after the victim's own sessions have finished; fleet-wide only when
	// the victim hosts none.
	if cl != nil && spec.KillAtFrac > 0 {
		victim := chaos.Victim(spec.Seed, spec.Cluster)
		go func() {
			// Session i starts on member i mod N (the rotated candidate
			// lists above).
			stride := len(addrs)
			first, watchedFrames := victim, 0
			if victim >= len(sessions) {
				first, stride = 0, 1
			}
			for i := first; i < len(sessions); i += stride {
				watchedFrames += sessions[i].clip.NumFrames()
			}
			target := int(spec.KillAtFrac * float64(watchedFrames))
			for {
				select {
				case <-done:
					return
				case <-time.After(5 * time.Millisecond):
				}
				n := 0
				for i := first; i < len(sessions); i += stride {
					n += len(sessions[i].rec.Journal().Snapshot())
				}
				if n >= target {
					logf("fleet: killing member %d at %d/%d of its sessions' frames", victim, n, watchedFrames)
					cl.Kill(victim)
					return
				}
			}
		}()
	}

	report := &Report{Spec: Spec{
		Agents: spec.Agents, Servers: spec.Servers, Cluster: spec.Cluster,
		Duration: spec.Duration, Seed: spec.Seed,
	}}
	pollServers := func() {
		if cl == nil {
			return
		}
		for _, st := range cl.Status() {
			agg.ObserveServer(st.Name, st.State.String(), st.Sessions, st.LastHeartbeatAgeSec)
		}
	}
	ticker := time.NewTicker(liveRollupEvery)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-done:
			break loop
		case <-ticker.C:
			pollServers()
			report.Rollups = append(report.Rollups, agg.Rollup(time.Since(start).Seconds()))
		}
	}
	pollServers()
	report.Rollups = append(report.Rollups, agg.Rollup(time.Since(start).Seconds()))

	live := &LiveSummary{}
	for i := range sessions {
		st := sessions[i].stats
		live.Migrations += st.Migrations
		live.ForcedMigrations += st.ForcedMigrations
		live.Redirects += st.Redirects
		if st.MaxMigrationGapSec > live.MaxMigrationGapSec {
			live.MaxMigrationGapSec = st.MaxMigrationGapSec
		}
		if errs[i] != nil {
			logf("session %d: %v", i, errs[i])
		}
	}
	report.Live = live

	if spec.JournalDir != "" {
		if err := os.MkdirAll(spec.JournalDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("fleet: journal dir: %w", err)
		}
		for i := range sessions {
			path := filepath.Join(spec.JournalDir, sessions[i].name+".jsonl")
			f, err := os.Create(path)
			if err != nil {
				return nil, nil, fmt.Errorf("fleet: journal export: %w", err)
			}
			werr := sessions[i].rec.Journal().WriteJSONL(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return nil, nil, fmt.Errorf("fleet: journal export %s: %w", path, werr)
			}
		}
		logf("fleet: exported %d session journals to %s", len(sessions), spec.JournalDir)
	}
	return report, errs, nil
}

// LiveSummary is the client-side accounting only live mode can produce
// (the model has no real migrations); nil on model reports so they
// serialize unchanged.
type LiveSummary struct {
	// Migrations counts completed session handoffs fleet-wide;
	// ForcedMigrations the subset caused by losing the server (vs a planned
	// Redirect); Redirects the Redirect messages honored.
	Migrations       int `json:"migrations"`
	ForcedMigrations int `json:"forced_migrations"`
	Redirects        int `json:"redirects"`
	// MaxMigrationGapSec is the worst re-detection gap any session paid.
	MaxMigrationGapSec float64 `json:"max_migration_gap_sec"`
}
