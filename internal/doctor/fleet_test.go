package doctor

import (
	"testing"

	"dive/internal/obs"
)

// rollupSeries builds a synthetic tick sequence from a shaping callback.
func rollupSeries(n int, shape func(tick int, ru *obs.FleetRollup)) []obs.FleetRollup {
	out := make([]obs.FleetRollup, n)
	for i := range out {
		out[i] = obs.FleetRollup{Tick: i, Sessions: 10, FleetBurn: 0.1}
		shape(i, &out[i])
	}
	return out
}

// TestStragglerSessionDetector requires a sustained streak: two ticks in the
// table is noise, three is a finding, and the finding fires once per streak.
func TestStragglerSessionDetector(t *testing.T) {
	lag := obs.Straggler{
		Session: "nuScenes-003", Profile: "nuScenes", Factor: 8.2,
		LatencyP99Sec: 0.61, BurnRate: 44, Reason: "latency",
	}
	series := rollupSeries(10, func(tick int, ru *obs.FleetRollup) {
		// In the table ticks 1-2 (short blip), then 4-9 (sustained).
		if tick == 1 || tick == 2 || tick >= 4 {
			ru.Stragglers = []obs.Straggler{lag}
		}
	})
	rep := AnalyzeFleet(series)
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Check != "straggler-session" || f.Severity != Fail {
		t.Fatalf("finding = %+v", f)
	}
	if f.FirstFrame != 4 || f.LastFrame != 6 {
		t.Errorf("streak anchored to ticks %d-%d, want 4-6", f.FirstFrame, f.LastFrame)
	}
}

// TestStragglerSessionRecoveringSession: a session that leaves the table
// before the streak threshold must not be diagnosed.
func TestStragglerSessionRecoveringSession(t *testing.T) {
	series := rollupSeries(8, func(tick int, ru *obs.FleetRollup) {
		if tick < 2 { // recovers before the 3-tick bar
			ru.Stragglers = []obs.Straggler{{Session: "KITTI-017", Factor: 5}}
		}
	})
	if rep := AnalyzeFleet(series); !rep.Healthy() {
		t.Fatalf("recovered session still diagnosed: %+v", rep.Findings)
	}
}

// TestFleetBurnDetector: diffuse overload (burn > 1, empty straggler table)
// must fire after FleetBurnTicks; burn attributable to a straggler must not.
func TestFleetBurnDetector(t *testing.T) {
	diffuse := rollupSeries(6, func(tick int, ru *obs.FleetRollup) {
		if tick >= 1 {
			ru.FleetBurn = 3.5
			ru.Unhealthy = 1
		}
	})
	rep := AnalyzeFleet(diffuse)
	var burn []Finding
	for _, f := range rep.Findings {
		if f.Check == "fleet-burn" {
			burn = append(burn, f)
		}
	}
	if len(burn) != 1 {
		t.Fatalf("fleet-burn findings = %+v, want exactly 1", burn)
	}
	if burn[0].FirstFrame != 1 || burn[0].Value != 3.5 {
		t.Errorf("finding = %+v, want streak from tick 1 at burn 3.5", burn[0])
	}

	attributed := rollupSeries(6, func(tick int, ru *obs.FleetRollup) {
		ru.FleetBurn = 3.5
		ru.Stragglers = []obs.Straggler{{Session: "nuScenes-003", Factor: 9}}
	})
	for _, f := range AnalyzeFleet(attributed).Findings {
		if f.Check == "fleet-burn" {
			t.Fatalf("fleet-burn fired on straggler-attributable burn: %+v", f)
		}
	}
}
