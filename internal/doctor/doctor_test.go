package doctor

import (
	"fmt"
	"testing"

	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/sim"
	"dive/internal/world"
)

// runDiVE runs the real pipeline over a clip of the given profile (clip seed
// 31) and link trace with telemetry on and returns the recorder holding
// journal + spans.
func runDiVE(t *testing.T, profile world.Profile, trace netsim.Trace, dur float64) *obs.Recorder {
	t.Helper()
	profile.ClipDuration = dur
	clip := world.GenerateClip(profile, 31)
	rec := obs.NewRecorder(clip.NumFrames())
	link := netsim.NewLink(trace, 0.012)
	link.Obs = rec
	scheme := &sim.DiVE{ConfigFn: func(cfg *core.AgentConfig) { cfg.Obs = rec }}
	if _, err := scheme.Run(clip, link, sim.NewEnv(9)); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestHealthyRunZeroFindings is the false-positive guard: the default
// pipeline over a steady link must diagnose clean, on every dataset profile
// down to 1 Mbps, where rate control is tightest and a base QP that swings
// frame to frame would be a qp-oscillation finding.
func TestHealthyRunZeroFindings(t *testing.T) {
	for _, c := range []struct {
		profile   world.Profile
		mbps, dur float64
	}{
		{world.NuScenesLike(), 3, 2.5},
		{world.NuScenesLike(), 1, 6},
		{world.NuScenesLike(), 2, 6},
		{world.RobotCarLike(), 1, 6},
		{world.RobotCarLike(), 2, 6},
		{world.KITTILike(), 1, 6},
		{world.KITTILike(), 2, 6},
	} {
		t.Run(fmt.Sprintf("%s/%gMbps/%gs", c.profile.Name, c.mbps, c.dur), func(t *testing.T) {
			rec := runDiVE(t, c.profile, netsim.ConstantTrace(netsim.Mbps(c.mbps)), c.dur)
			rep := Analyze(rec.Journal().Snapshot(), 0)
			if !rep.Healthy() {
				t.Fatalf("healthy run produced %d findings: %+v", len(rep.Findings), rep.Findings)
			}
			if len(rep.Checks) < 4 {
				t.Errorf("only %d checks ran: %v", len(rep.Checks), rep.Checks)
			}
			if rep.Frames == 0 {
				t.Error("report saw no journal frames")
			}
		})
	}
}

// TestSeededOutageDriftDetected injects a long hard outage through the real
// simulator: the head-of-queue timer fires frame after frame, local MOT
// carries the boxes, and the doctor must call the drift out.
func TestSeededOutageDriftDetected(t *testing.T) {
	rec := runDiVE(t, world.NuScenesLike(), &netsim.OutageTrace{
		Inner: netsim.ConstantTrace(netsim.Mbps(2)),
		Start: 0.8, Interval: 10, Duration: 1.5,
	}, 3)
	journal := rec.Journal().Snapshot()
	rep := Analyze(journal, 0)
	if !hasCheck(rep, "outage-drift") {
		t.Fatalf("outage drift not flagged; findings: %+v", rep.Findings)
	}
	// The journal must actually show the outage mechanics the finding is
	// built on.
	outages := 0
	for _, j := range journal {
		if j.Outage {
			outages++
			if j.QueueDelaySec <= 0 {
				t.Errorf("frame %d journaled outage without a queue delay", j.Frame)
			}
		}
	}
	if outages < DefaultOutageRun {
		t.Fatalf("only %d outage frames journaled", outages)
	}
}

// TestSeededQPOscillationDetected seeds the journal of a rate controller
// caught in an estimate/response feedback loop: the base QP swings hard in
// alternating directions every frame.
func TestSeededQPOscillationDetected(t *testing.T) {
	var journal []obs.JournalRecord
	qps := []int{24, 34, 22, 35, 23, 33, 21, 34, 24}
	for i, qp := range qps {
		journal = append(journal, obs.JournalRecord{Frame: i, BaseQP: qp, Type: "P"})
	}
	rep := Analyze(journal, 0)
	f, ok := findCheck(rep, "qp-oscillation")
	if !ok {
		t.Fatalf("oscillation not flagged; findings: %+v", rep.Findings)
	}
	if f.FirstFrame != 0 || f.LastFrame != len(qps)-1 {
		t.Errorf("finding anchored at %d–%d, want 0–%d", f.FirstFrame, f.LastFrame, len(qps)-1)
	}

	// A monotone ramp with the same step sizes is adaptation, not
	// oscillation — must stay clean.
	var ramp []obs.JournalRecord
	for i := 0; i < 9; i++ {
		ramp = append(ramp, obs.JournalRecord{Frame: i, BaseQP: 10 + 4*i, Type: "P"})
	}
	if rep := Analyze(ramp, 0); hasCheck(rep, "qp-oscillation") {
		t.Errorf("monotone QP ramp misdiagnosed as oscillation")
	}
}

// TestSeededBandwidthBiasDetected seeds a journal whose estimator
// consistently promised twice what the link delivered.
func TestSeededBandwidthBiasDetected(t *testing.T) {
	var journal []obs.JournalRecord
	for i := 0; i < 24; i++ {
		journal = append(journal, obs.JournalRecord{
			Frame: i, BaseQP: 28, Type: "P",
			EstBWBps: 2e6, RealizedBWBps: 1e6,
		})
	}
	rep := Analyze(journal, 0)
	f, ok := findCheck(rep, "bandwidth-bias")
	if !ok {
		t.Fatalf("bandwidth over-estimation not flagged; findings: %+v", rep.Findings)
	}
	if f.Value < 1.9 || f.Value > 2.1 {
		t.Errorf("measured bias ratio %.2f, want ~2.0", f.Value)
	}

	// An unbiased estimator with the same sample count stays clean.
	for i := range journal {
		journal[i].RealizedBWBps = journal[i].EstBWBps * 1.05
	}
	if rep := Analyze(journal, 0); hasCheck(rep, "bandwidth-bias") {
		t.Errorf("unbiased estimator misdiagnosed")
	}

	// Too few acked frames must not trigger: outage-heavy runs would
	// otherwise produce noise findings.
	if rep := Analyze(journal[:4], 0); hasCheck(rep, "bandwidth-bias") {
		t.Errorf("bias flagged on %d samples, below the minimum", 4)
	}
}

// TestSeededFGCollapseDetected seeds the turn-collapse signature: moving,
// rotation removal succeeding, yet frame after frame falls back to a stale
// foreground mask.
func TestSeededFGCollapseDetected(t *testing.T) {
	var journal []obs.JournalRecord
	for i := 0; i < 8; i++ {
		journal = append(journal, obs.JournalRecord{
			Frame: i, Type: "P",
			Moving: true, RotOK: true, PhiY: 0.01,
			FGReused: true, FGMBs: 0,
		})
	}
	rep := Analyze(journal, 0)
	if !hasCheck(rep, "fg-collapse") {
		t.Fatalf("foreground collapse not flagged; findings: %+v", rep.Findings)
	}

	// Stopped frames legitimately reuse the mask — no finding.
	for i := range journal {
		journal[i].Moving = false
		journal[i].RotOK = false
	}
	if rep := Analyze(journal, 0); hasCheck(rep, "fg-collapse") {
		t.Errorf("stationary mask reuse misdiagnosed as collapse")
	}
}

func hasCheck(rep *Report, check string) bool {
	_, ok := findCheck(rep, check)
	return ok
}

func findCheck(rep *Report, check string) (Finding, bool) {
	for _, f := range rep.Findings {
		if f.Check == check {
			return f, true
		}
	}
	return Finding{}, false
}
