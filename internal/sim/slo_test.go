package sim

import (
	"testing"

	"dive/internal/chaos"
	"dive/internal/obs"
)

// TestChaosRunFeedsSLOTracker proves the sim is wired into per-session SLO
// accounting: a chaos outage-burst run must leave a session window whose
// outage objective is burning (the fault windows drop frames onto local
// MOT).
func TestChaosRunFeedsSLOTracker(t *testing.T) {
	var sc chaos.Scenario
	for _, s := range chaos.StandardScenarios(99, chaosClipDur) {
		if s.Name == "outage-burst" {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatal("outage-burst scenario missing from the standard suite")
	}

	rec := obs.NewRecorder(256)
	_, clip := runScenario(t, sc, rec)

	st, ok := rec.SLO().SessionStatus("")
	if !ok {
		t.Fatal("run tracked no SLO session")
	}
	if st.Frames != clip.NumFrames() {
		t.Fatalf("SLO window holds %d samples, want one per frame (%d)", st.Frames, clip.NumFrames())
	}
	if st.OutageFrac == 0 || st.OutageBurn == 0 {
		t.Fatalf("outage-burst run shows no outage burn: %+v", st)
	}
	if st.BurnRate < st.OutageBurn {
		t.Fatalf("burn rate %g below outage burn %g", st.BurnRate, st.OutageBurn)
	}
	if st.FGShareMean <= 0 {
		t.Fatalf("no foreground-share samples fed: %+v", st)
	}
}
