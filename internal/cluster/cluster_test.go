package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dive/internal/chaos"
	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/doctor"
	"dive/internal/edge"
	"dive/internal/obs"
	"dive/internal/world"
)

// inertProbe returns a probe config whose loop never fires during a test, so
// state-machine tests can drive observeProbe by hand without ticker races.
func inertProbe() ProbeConfig {
	return ProbeConfig{
		Interval: time.Hour,
		Func:     func(string, time.Duration) error { return nil },
	}
}

func fastBackoff() edge.BackoffConfig {
	return edge.BackoffConfig{
		Initial: 10 * time.Millisecond, Max: 50 * time.Millisecond,
		MaxAttempts: 5,
	}
}

// TestProbeStateMachine walks one member through the full membership ladder:
// healthy → suspect on the first failure, → down at the fail threshold, back
// to healthy only after the recovery hysteresis, and draining immune to both.
func TestProbeStateMachine(t *testing.T) {
	c, err := New(Config{Members: 2, Probe: inertProbe()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.members[0]
	refused := errors.New("probe refused")

	c.observeProbe(m, refused)
	if st := m.status().State; st != Suspect {
		t.Fatalf("after 1 failure state = %v, want suspect", st)
	}
	c.observeProbe(m, refused)
	if st := m.status().State; st != Suspect {
		t.Fatalf("after 2 failures state = %v, want suspect (threshold 3)", st)
	}
	c.observeProbe(m, refused)
	if st := m.status().State; st != Down {
		t.Fatalf("after 3 failures state = %v, want down", st)
	}
	c.observeProbe(m, nil)
	if st := m.status().State; st != Down {
		t.Fatalf("after 1 success state = %v, want down (recovery threshold 2)", st)
	}
	c.observeProbe(m, nil)
	if st := m.status().State; st != Healthy {
		t.Fatalf("after 2 successes state = %v, want healthy", st)
	}
	if age := m.status().LastHeartbeatAgeSec; age < 0 {
		t.Errorf("heartbeat age %v after successful probes, want >= 0", age)
	}

	// One dropped probe dents but does not evict; one good probe is not
	// enough to fully rehabilitate.
	c.observeProbe(m, refused)
	c.observeProbe(m, nil)
	if st := m.status().State; st != Suspect {
		t.Fatalf("one success after a failure = %v, want still suspect", st)
	}
	c.observeProbe(m, nil)
	if st := m.status().State; st != Healthy {
		t.Fatalf("second success = %v, want healthy", st)
	}

	// Draining is an operator verdict: perfect probes must not undo it.
	m.mu.Lock()
	m.state = Draining
	m.mu.Unlock()
	c.observeProbe(m, nil)
	c.observeProbe(m, nil)
	if st := m.status().State; st != Draining {
		t.Fatalf("probes overrode draining: state = %v", st)
	}
}

// TestPickerRouting checks the balancer's ranking: healthy beats suspect,
// lower load wins among equals, down and draining are never picked, and
// candidateAddrs exposes the same order as a dial list.
func TestPickerRouting(t *testing.T) {
	c, err := New(Config{Members: 3, Probe: inertProbe()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	set := func(i int, s State, load float64) {
		m := c.members[i]
		m.mu.Lock()
		m.state, m.load = s, load
		m.mu.Unlock()
	}

	set(0, Healthy, 2.0)
	set(1, Healthy, 0.5)
	set(2, Suspect, 0)
	st, err := c.pick(-1)
	if err != nil || st.Index != 1 {
		t.Fatalf("pick = %+v, %v; want lowest-loaded healthy member 1", st, err)
	}
	want := []string{c.Addr(1), c.Addr(0), c.Addr(2)}
	got := c.candidateAddrs()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidateAddrs = %v, want %v", got, want)
		}
	}

	set(1, Down, 0)
	if st, _ := c.pick(-1); st.Index != 0 {
		t.Fatalf("pick with member 1 down = %d, want 0", st.Index)
	}
	if st, _ := c.pick(0); st.Index != 2 {
		t.Fatalf("pick excluding 0 = %d, want suspect member 2 over down member 1", st.Index)
	}
	// Down members still appear in the dial list, just last among these.
	got = c.candidateAddrs()
	if got[len(got)-1] != c.Addr(1) {
		t.Fatalf("down member not last in candidateAddrs: %v", got)
	}

	set(0, Down, 0)
	set(2, Draining, 0)
	if _, err := c.pick(-1); err == nil {
		t.Fatal("pick succeeded with every member down or draining")
	}
}

// runClusterClip streams one clip through a 3-member cluster with the given
// pipeline window, optionally disrupting the cluster once the journal shows
// the clip is half done. It returns the per-frame detections, client stats
// and the journal.
func runClusterClip(t *testing.T, window int, seed int64, disrupt func(c *Cluster, rec *obs.Recorder, half int)) ([][]detect.Detection, edge.ClientStats, []obs.JournalRecord) {
	t.Helper()
	c, err := New(Config{Members: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := world.NuScenesLike()
	p.ClipDuration = 2
	clip := world.GenerateClip(p, seed)
	rec := obs.NewRecorder(256)
	cfg := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Obs = rec
	cfg.Seed = 5
	agent, err := core.NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := edge.NewClient(edge.ClientConfig{
		Addrs: c.candidateAddrs(), Profile: "nuScenes", Seed: seed,
		Duration: p.ClipDuration, Window: window,
		AckTimeout: 2 * time.Second, Backoff: fastBackoff(), Obs: rec,
	}, agent)

	done := make(chan struct{})
	if disrupt == nil {
		close(done)
	} else {
		go func() {
			defer close(done)
			disrupt(c, rec, clip.NumFrames()/2)
		}()
	}
	dets, stats, err := client.Run(clip)
	<-done
	if err != nil {
		t.Fatalf("run failed: %v (stats %+v)", err, stats)
	}
	if len(dets) != clip.NumFrames() {
		t.Fatalf("got %d detection slots for %d frames", len(dets), clip.NumFrames())
	}
	return dets, stats, rec.Journal().Snapshot()
}

// killServing waits until the clip is half streamed, finds the member holding
// the session and kills it — once.
func killServing(c *Cluster, rec *obs.Recorder, half int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(rec.Journal().Snapshot()) >= half {
			for _, st := range c.Status() {
				if st.Sessions > 0 {
					c.Kill(st.Index)
					return
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func totalBoxes(dets [][]detect.Detection) int {
	n := 0
	for _, d := range dets {
		n += len(d)
	}
	return n
}

// TestKillMemberMidClip is the headline guarantee: kill the member serving a
// live session halfway through the clip, at pipeline windows 1–3, and the
// session must fail over to a survivor with (a) every frame still covered,
// (b) exactly one forced migration whose re-detection gap stays under the
// doctor's budget, (c) an intra frame opening the post-handoff bitstream, and
// (d) detections comparable to the no-failure run.
func TestKillMemberMidClip(t *testing.T) {
	gapBudget := doctor.MigrationGapBudgetSec
	for w := 1; w <= 3; w++ {
		t.Run(fmt.Sprintf("window=%d", w), func(t *testing.T) {
			cleanDets, cleanStats, cleanJS := runClusterClip(t, w, 77, nil)
			if cleanStats.Migrations != 0 || cleanStats.Reconnects != 0 {
				t.Fatalf("clean cluster run migrated or reconnected: %+v", cleanStats)
			}
			if rep := doctor.Analyze(cleanJS, 0); hasCheck(rep, "migration-gap") {
				t.Fatalf("clean run produced migration findings: %+v", rep.Findings)
			}

			dets, stats, js := runClusterClip(t, w, 77, killServing)
			if stats.ForcedMigrations < 1 {
				t.Fatalf("kill produced no forced migration: %+v", stats)
			}
			for i, d := range dets {
				if d == nil {
					t.Errorf("frame %d left uncovered after the kill", i)
				}
			}
			if stats.MaxMigrationGapSec > gapBudget {
				t.Errorf("re-detection gap %.3fs exceeds the %.1fs budget", stats.MaxMigrationGapSec, gapBudget)
			}

			migrated := 0
			for _, j := range js {
				if !j.Migrated {
					continue
				}
				migrated++
				if !j.MigrationForced {
					t.Errorf("kill journaled a planned migration: %+v", j)
				}
				if j.MigrationGapSec <= 0 || j.MigrationGapSec > gapBudget {
					t.Errorf("frame %d migration gap %.3fs outside (0, %.1f]", j.Frame, j.MigrationGapSec, gapBudget)
				}
				if j.Type != "I" && !j.ForcedIFrame {
					t.Errorf("first post-handoff frame %d is %q, want an intra frame", j.Frame, j.Type)
				}
				if j.MigratedTo == "" {
					t.Errorf("frame %d migration has no target", j.Frame)
				}
			}
			if migrated != 1 {
				t.Fatalf("journal shows %d migrations for one kill, want 1", migrated)
			}

			// Recall vs the no-failure run: MOT covers the gap, so the kill
			// run must keep the bulk of the clean run's detections (epsilon-
			// based — live TCP timing makes strict equality meaningless).
			if tk, tc := totalBoxes(dets), totalBoxes(cleanDets); float64(tk) < 0.7*float64(tc) {
				t.Errorf("kill run kept %d boxes of the clean run's %d (< 70%%)", tk, tc)
			}

			// The doctor must grade this exactly as CI will: one bounded
			// migration-gap warn, no failover storm.
			rep := doctor.Analyze(js, 0)
			gaps := 0
			for _, f := range rep.Findings {
				switch f.Check {
				case "migration-gap":
					gaps++
					if f.Severity != doctor.Warn {
						t.Errorf("bounded migration graded %v, want warn: %+v", f.Severity, f)
					}
				case "failover-storm":
					t.Errorf("single kill graded as a failover storm: %+v", f)
				}
			}
			if gaps != 1 {
				t.Errorf("doctor found %d migration-gap findings, want exactly 1", gaps)
			}
		})
	}
}

func hasCheck(rep *doctor.Report, check string) bool {
	for _, f := range rep.Findings {
		if f.Check == check {
			return true
		}
	}
	return false
}

// TestDrainPlannedMigration drains the serving member mid-clip: the session
// must follow the Redirect to a survivor (planned, not forced), resume with
// an intra frame, and finish covered. The drain is retried until one has
// redirected the session: a Drain that finds no session to move yet (or no
// target) still leaves the member Draining, so the retry must not wait for
// the member to leave that state.
func TestDrainPlannedMigration(t *testing.T) {
	drainServing := func(c *Cluster, rec *obs.Recorder, half int) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if len(rec.Journal().Snapshot()) >= half {
				for _, st := range c.Status() {
					if st.Sessions > 0 {
						if _, n, err := c.Drain(st.Index); err == nil && n > 0 {
							return
						}
					}
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	dets, stats, js := runClusterClip(t, 2, 78, drainServing)
	if stats.Redirects < 1 || stats.Migrations < 1 {
		t.Fatalf("drain produced no redirect-driven migration: %+v", stats)
	}
	if stats.ForcedMigrations != 0 {
		t.Errorf("planned drain counted as forced: %+v", stats)
	}
	for i, d := range dets {
		if d == nil {
			t.Errorf("frame %d left uncovered across the drain", i)
		}
	}
	found := false
	for _, j := range js {
		if !j.Migrated {
			continue
		}
		found = true
		if j.MigrationForced {
			t.Errorf("drain journaled a forced migration: %+v", j)
		}
		if j.Type != "I" && !j.ForcedIFrame {
			t.Errorf("first post-drain frame %d is %q, want an intra frame", j.Frame, j.Type)
		}
	}
	if !found {
		t.Fatal("no migration journaled for the drain")
	}
}

// TestHelloProbeFailsThroughBlackout runs the real HelloProbe through a
// chaos.Proxy in front of an edge.Server: a blacked-out path fails the probe
// even though its TCP port still accepts, and the healed path passes again.
func TestHelloProbeFailsThroughBlackout(t *testing.T) {
	srv := edge.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Kill()
	p, err := chaos.NewProxy(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := HelloProbe(p.Addr(), probeTimeout); err != nil {
		t.Fatalf("probe over a clean path: %v", err)
	}
	p.SetBlackout(true)
	if err := HelloProbe(p.Addr(), probeTimeout); err == nil {
		t.Fatal("probe passed through a blackout")
	}
	p.SetBlackout(false)
	if err := HelloProbe(p.Addr(), probeTimeout); err != nil {
		t.Fatalf("probe over the healed path: %v", err)
	}
}

// candidateAddrs returns every member's address ordered by routing
// desirability — the ordered failover list for edge.ClientConfig.Addrs. Down
// and draining members are included last: a client that exhausts the healthy
// set should still try them, they may have recovered by then.
func (c *Cluster) candidateAddrs() []string {
	sts := c.Status()
	// Insertion sort: member counts are single digits.
	for i := 1; i < len(sts); i++ {
		for j := i; j > 0 && rank(sts[j], sts[j-1]); j-- {
			sts[j], sts[j-1] = sts[j-1], sts[j]
		}
	}
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = st.Addr
	}
	return out
}
