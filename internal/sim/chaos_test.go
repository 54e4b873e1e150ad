package sim

import (
	"testing"

	"dive/internal/chaos"
	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

// The chaos scenario suite runs the full DiVE scheme over the scripted
// adverse-link traces from internal/chaos: seeded outage bursts, a hard
// bandwidth cliff, and estimator-poisoning flutter. Each run must be
// deterministic, keep every frame covered by a detection set (MOT carries
// the outage windows), and resume uploads within the scenario's grading
// bound after the last injected fault lifts.

const chaosClipDur = 3.0

func runScenario(t *testing.T, sc chaos.Scenario, rec *obs.Recorder) (*Result, *world.Clip) {
	t.Helper()
	clip := testClip(t, world.NuScenesLike(), chaosClipDur, 17)
	link := netsim.NewLink(sc.Trace, 0.012)
	scheme := &DiVE{ConfigFn: func(cfg *core.AgentConfig) { cfg.Obs = rec }}
	res, err := scheme.Run(clip, link, NewEnv(7))
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return res, clip
}

func TestChaosScenariosSurviveAndRecover(t *testing.T) {
	for _, sc := range chaos.StandardScenarios(99, chaosClipDur) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rec := obs.NewRecorder(256)
			res, clip := runScenario(t, sc, rec)

			// MOT must cover the outage windows: whenever the server last
			// returned a non-empty detection set, a dropped frame must still
			// carry (locally tracked) boxes. Frames where the scene is
			// genuinely empty may return nil from the detector.
			haveBoxes := false
			for i, d := range res.Detections {
				if res.Uploaded[i] {
					haveBoxes = len(d) > 0
					continue
				}
				if haveBoxes && d == nil {
					t.Errorf("outage frame %d lost its tracked boxes", i)
				}
			}

			// The scripted faults must actually bite — otherwise the
			// recovery assertion below is vacuous. Hard-outage scenarios
			// drop frames; the poison scenario bites by depressing the
			// bandwidth estimate inside its flutter windows instead.
			outages := 0
			for _, ok := range res.Uploaded {
				if !ok {
					outages++
				}
			}
			if outages == 0 {
				preFault, inFault := 0.0, -1.0
				for _, j := range rec.Journal().Snapshot() {
					if j.EstBWBps <= 0 {
						continue
					}
					capture := float64(j.Frame) / clip.FPS
					in := false
					for _, w := range sc.FaultWindows {
						if capture >= w[0] && capture < w[1] {
							in = true
							break
						}
					}
					if in {
						if inFault < 0 || j.EstBWBps < inFault {
							inFault = j.EstBWBps
						}
					} else if capture < sc.FaultWindows[0][0] && j.EstBWBps > preFault {
						preFault = j.EstBWBps
					}
				}
				if inFault < 0 || preFault <= 0 || inFault > preFault*0.7 {
					t.Fatalf("%s: no frame dropped and estimate never depressed (pre %.0f, in-fault min %.0f); scenario too gentle",
						sc.Name, preFault, inFault)
				}
			}

			// Recovery bound: after the last fault window ends, some frame
			// must upload within RecoverWithinSec of simulated time.
			lastEnd := 0.0
			for _, w := range sc.FaultWindows {
				if w[1] > lastEnd {
					lastEnd = w[1]
				}
			}
			if lastEnd >= chaosClipDur {
				t.Fatalf("%s: last fault window %v extends past the clip", sc.Name, lastEnd)
			}
			recovered := false
			for i, ok := range res.Uploaded {
				capture := float64(i) / clip.FPS
				if ok && capture >= lastEnd && capture <= lastEnd+sc.RecoverWithinSec {
					recovered = true
					break
				}
			}
			if !recovered {
				t.Errorf("%s: no upload within %.1fs after the last fault window (ends %.2fs)",
					sc.Name, sc.RecoverWithinSec, lastEnd)
			}

			// Dropped frames must be journaled as outages so divedoctor can
			// grade the run's failure handling.
			if outages > 0 {
				journaled := 0
				for _, j := range rec.Journal().Snapshot() {
					if j.Outage {
						journaled++
					}
				}
				if journaled == 0 {
					t.Errorf("%s: %d dropped frames but none journaled as outages", sc.Name, outages)
				}
			}
		})
	}
}

// TestChaosScenariosDeterministic pins the fault-injection contract: the
// same seed must script the same faults and yield bit-identical runs.
func TestChaosScenariosDeterministic(t *testing.T) {
	for _, sc := range chaos.StandardScenarios(7, chaosClipDur) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a, _ := runScenario(t, sc, nil)
			b, _ := runScenario(t, sc, nil)
			if len(a.BitsSent) != len(b.BitsSent) {
				t.Fatalf("%s: run lengths differ", sc.Name)
			}
			for i := range a.BitsSent {
				if a.BitsSent[i] != b.BitsSent[i] || a.Uploaded[i] != b.Uploaded[i] {
					t.Fatalf("%s: frame %d diverged between identical runs (bits %d vs %d, uploaded %v vs %v)",
						sc.Name, i, a.BitsSent[i], b.BitsSent[i], a.Uploaded[i], b.Uploaded[i])
				}
				if len(a.Detections[i]) != len(b.Detections[i]) {
					t.Fatalf("%s: frame %d detection counts diverged", sc.Name, i)
				}
			}
		})
	}
}
