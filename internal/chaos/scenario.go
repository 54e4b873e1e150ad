package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"dive/internal/netsim"
)

// Scenario is a named adverse-link script for the simulator and the
// experiment harness: a bandwidth trace plus the bound the run is graded
// against.
type Scenario struct {
	Name  string
	Trace netsim.Trace
	// RecoverWithinSec is the grading bound: after the last injected fault
	// window ends, uploads must resume within this many simulated seconds.
	RecoverWithinSec float64
	// FaultWindows are the [start, end) intervals (seconds) during which
	// the link is deliberately broken; graders use them to separate
	// injected outages from emergent ones.
	FaultWindows [][2]float64
}

// WindowedOutageTrace forces bandwidth to zero inside explicit windows —
// the aperiodic counterpart of netsim.OutageTrace, for scripted bursts.
type WindowedOutageTrace struct {
	Inner   netsim.Trace
	Windows [][2]float64 // [start, end) seconds
}

// BandwidthAt implements netsim.Trace.
func (w *WindowedOutageTrace) BandwidthAt(t float64) float64 {
	for _, win := range w.Windows {
		if t >= win[0] && t < win[1] {
			return 0
		}
	}
	return w.Inner.BandwidthAt(t)
}

// OutageBurst scripts n dead-air windows of dur seconds over a base trace,
// spaced pseudo-randomly (seeded) across [start, horizon).
func OutageBurst(base netsim.Trace, seed int64, n int, start, horizon, dur float64) *WindowedOutageTrace {
	rng := rand.New(rand.NewSource(seed))
	span := horizon - start
	if span <= 0 || n <= 0 {
		return &WindowedOutageTrace{Inner: base}
	}
	windows := make([][2]float64, 0, n)
	slot := span / float64(n)
	jitterSpan := slot - dur
	if jitterSpan < 0 {
		jitterSpan = 0
	}
	for i := 0; i < n; i++ {
		at := start + float64(i)*slot + rng.Float64()*jitterSpan
		windows = append(windows, [2]float64{at, at + dur})
	}
	return &WindowedOutageTrace{Inner: base, Windows: windows}
}

// EstimatorPoison flutters the link on and off with short seeded dead slots:
// sends that straddle a dead slot serialize over a long interval and report
// a tiny realized bandwidth, poisoning sliding-window estimators. The flutter
// runs from start to end; outside it the base trace is untouched.
func EstimatorPoison(base netsim.Trace, seed int64, start, end, slotSec float64) *WindowedOutageTrace {
	rng := rand.New(rand.NewSource(seed))
	var windows [][2]float64
	for t := start; t < end; t += slotSec * 2 {
		// Each cycle deadens a seeded fraction of its slot.
		d := slotSec * (0.4 + 0.4*rng.Float64())
		windows = append(windows, [2]float64{t, t + d})
	}
	return &WindowedOutageTrace{Inner: base, Windows: windows}
}

// StandardScenarios returns the scripted adverse-link suite, deterministic
// in seed, over a clip of the given duration (seconds).
func StandardScenarios(seed int64, duration float64) []Scenario {
	base := netsim.Mbps(2)
	fading := &netsim.FadingTrace{Base: base, Swing: 0.3, Period: 6, Jitter: 0.15, Seed: seed}
	burst := OutageBurst(fading, seed, 2, duration*0.25, duration*0.85, 0.6)
	poison := EstimatorPoison(netsim.ConstantTrace(base), seed+1, duration*0.3, duration*0.6, 0.25)
	// The cliff drops the link to 15% and restores it: the hard-handover
	// shape that breaks estimators trained on the pre-cliff rate.
	cliffAt, recoverAt := duration*0.35, duration*0.7
	cliff := &netsim.StepTrace{Times: []float64{0, cliffAt, recoverAt}, Rates: []float64{base, base * 0.15, base}}
	return []Scenario{
		{
			Name:  "outage-burst",
			Trace: burst, RecoverWithinSec: 1.0,
			FaultWindows: burst.Windows,
		},
		{
			Name:  "bandwidth-cliff",
			Trace: cliff, RecoverWithinSec: 1.5,
			FaultWindows: [][2]float64{{cliffAt, recoverAt}},
		},
		{
			Name:  "estimator-poison",
			Trace: poison, RecoverWithinSec: 1.0,
			FaultWindows: poison.Windows,
		},
	}
}

// ScenarioNames lists the StandardScenarios names in suite order.
func ScenarioNames() string {
	var names []string
	for _, sc := range StandardScenarios(0, 1) {
		names = append(names, sc.Name)
	}
	return strings.Join(names, ", ")
}

// FindScenario resolves a StandardScenarios entry by name, for the same seed
// and duration; an unknown name is an error that lists the known ones.
func FindScenario(name string, seed int64, duration float64) (Scenario, error) {
	for _, sc := range StandardScenarios(seed, duration) {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("unknown chaos scenario %q (available: %s)", name, ScenarioNames())
}
