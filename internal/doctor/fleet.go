package doctor

import (
	"fmt"
	"sort"

	"dive/internal/obs"
)

// The fleet detectors: streaming pathology checks over obs.FleetRollup
// series — the aggregation plane's view of a whole fleet, as a divefleet
// report carries it (Detector). Fleet findings anchor FirstFrame/LastFrame
// to rollup ticks, not journal frames.

// NewFleetDetectors builds the fleet detector suite in canonical order.
func NewFleetDetectors() []Detector[obs.FleetRollup] {
	return []Detector[obs.FleetRollup]{
		&stragglerSessionDetector{streaks: make(map[string]*stragglerStreak)},
		&fleetBurnDetector{},
	}
}

// stragglerSessionDetector promotes a straggler-table entry to a finding
// once the same session has stayed in the table for stragglerTicks
// consecutive rollups — one bad tick is noise (a GC pause, one outage
// window), a sustained streak is a session-level pathology. One finding per
// streak; a session that recovers and regresses starts a new streak.
type stragglerSessionDetector struct {
	streaks map[string]*stragglerStreak
}

const stragglerTicks = 3

type stragglerStreak struct {
	firstTick int
	count     int
	reported  bool
	last      obs.Straggler
}

func (d *stragglerSessionDetector) Name() string { return "straggler-session" }

func (d *stragglerSessionDetector) Observe(ru obs.FleetRollup) []Finding {
	var out []Finding
	cur := make(map[string]bool, len(ru.Stragglers))
	for _, s := range ru.Stragglers {
		cur[s.Session] = true
		st := d.streaks[s.Session]
		if st == nil {
			st = &stragglerStreak{firstTick: ru.Tick}
			d.streaks[s.Session] = st
		}
		st.count++
		st.last = s
		if st.count >= stragglerTicks && !st.reported {
			st.reported = true
			out = append(out, Finding{
				Check: d.Name(), Severity: Fail,
				FirstFrame: st.firstTick, LastFrame: ru.Tick,
				Value: float64(st.count), Threshold: float64(stragglerTicks),
				Message: fmt.Sprintf(
					"session %s (profile %s) straggled for %d consecutive rollups: %s, %.1f× the fleet (p99 %.0f ms, burn %.1f×)",
					s.Session, s.Profile, st.count, s.Reason, s.Factor,
					s.LatencyP99Sec*1000, s.BurnRate),
			})
		}
	}
	// A tick out of the table ends the streak.
	for session := range d.streaks {
		if !cur[session] {
			delete(d.streaks, session)
		}
	}
	// Deterministic finding order within one rollup.
	sort.Slice(out, func(i, j int) bool { return out[i].Message < out[j].Message })
	return out
}

func (d *stragglerSessionDetector) Flush() []Finding {
	d.streaks = make(map[string]*stragglerStreak)
	return nil
}

// fleetBurnDetector fires when the aggregate error budget burns past
// fleetBurnRate for fleetBurnTicks consecutive rollups with an empty
// straggler table — no single session stands out against the fleet median,
// yet the fleet as a whole is violating its SLO. That is diffuse overload
// (an under-provisioned edge, a fleet-wide link event), invisible to any
// per-session view; burn attributable to stragglers is left to
// straggler-session, and burn between 1 and the rate bar is treated as a
// transient budget blip (one chaos outage window clustering across the
// fleet), not overload.
type fleetBurnDetector struct {
	firstTick int
	count     int
	reported  bool
}

const (
	fleetBurnTicks = 3
	fleetBurnRate  = 2.0
)

func (d *fleetBurnDetector) Name() string { return "fleet-burn" }

func (d *fleetBurnDetector) Observe(ru obs.FleetRollup) []Finding {
	if ru.FleetBurn <= fleetBurnRate || len(ru.Stragglers) > 0 {
		d.count, d.reported = 0, false
		return nil
	}
	if d.count == 0 {
		d.firstTick = ru.Tick
	}
	d.count++
	if d.count < fleetBurnTicks || d.reported {
		return nil
	}
	d.reported = true
	return []Finding{{
		Check: d.Name(), Severity: Fail,
		FirstFrame: d.firstTick, LastFrame: ru.Tick,
		Value: ru.FleetBurn, Threshold: fleetBurnRate,
		Message: fmt.Sprintf(
			"fleet error budget burning at %.1f× for %d consecutive rollups with no straggler standing out (%d/%d sessions unhealthy): diffuse overload, not a per-session fault",
			ru.FleetBurn, d.count, ru.Unhealthy, ru.Sessions),
	}}
}

func (d *fleetBurnDetector) Flush() []Finding {
	d.firstTick, d.count, d.reported = 0, 0, false
	return nil
}
