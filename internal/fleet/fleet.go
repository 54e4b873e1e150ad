// Package fleet is the deterministic fleet simulator and its report layer:
// N synthetic agents streaming against M edge servers, every session owning
// its own obs.Recorder and SLO window, folded each virtual second by an
// obs.FleetAggregator into fleet rollups (aggregate throughput, merged
// latency quantiles, per-profile breakdowns, fleet burn, straggler table).
//
// Two execution modes share the Spec and Report types:
//
//   - Run (model.go): the default. Agents advance on a virtual clock with
//     seeded per-frame bit, bandwidth and service-time models and a
//     per-server contention feedback loop. No wall clock, no sockets — the
//     same spec and seed produce a byte-identical report, which is what
//     lets CI diff fleet behaviour run against run.
//   - RunLive (live.go): a small fleet of real edge.Client sessions over
//     loopback TCP against real edge.Server instances or a health-routed
//     cluster. End-to-end fidelity (wire protocol, reconnects,
//     degradation ladder) at the cost of wall-clock time and
//     non-determinism; used to validate that the model's telemetry shape
//     matches the real stack's.
//
// The link model mirrors the chaos scenario suite: each agent gets its own
// seeded variant of the named chaos.StandardScenarios trace, so scripted
// outage windows hit different agents at different times, like a fleet
// spread across cell coverage.
package fleet

import (
	"fmt"
	"math"

	"dive/internal/chaos"
	"dive/internal/obs"
)

// Spec configures a fleet run. The zero value is not useful; call
// (Spec).withDefaults via Run, which fills the documented defaults.
type Spec struct {
	// Agents is the fleet size (default 50). Servers is the number of edge
	// instances sessions are assigned to round-robin (default 1).
	Agents  int `json:"agents"`
	Servers int `json:"servers"`
	// Cluster records the cluster size of a live cluster-mode run (0 for
	// model runs and bare-server live runs).
	Cluster int `json:"cluster,omitempty"`
	// Duration is the simulated run length in virtual seconds (default 30).
	Duration float64 `json:"duration_sec"`
	// Seed drives every random stream in the run; identical specs with
	// identical seeds produce identical reports.
	Seed int64 `json:"seed"`
	// Chaos optionally names a chaos.StandardScenarios scenario; each agent
	// runs a per-agent seeded variant of it. Empty runs clean fading links.
	Chaos string `json:"chaos,omitempty"`
	// SlowAgents lists agent indices scripted onto a crippled link (5%
	// bandwidth, +300ms service) — the straggler pathology the rollup table
	// and the straggler-session detector must surface.
	SlowAgents []int `json:"slow_agents,omitempty"`
	// ServerCores scales each server's service capacity; utilization beyond
	// it inflates next-tick service times (default 8).
	ServerCores float64 `json:"server_cores"`
}

// rollupEverySec is the model's aggregation period in virtual seconds: one
// rollup per virtual second.
const rollupEverySec = 1.0

func (s Spec) withDefaults() Spec {
	if s.Agents <= 0 {
		s.Agents = 50
	}
	if s.Servers <= 0 {
		s.Servers = 1
	}
	if s.Duration <= 0 {
		s.Duration = 30
	}
	if s.ServerCores <= 0 {
		s.ServerCores = 8
	}
	return s
}

// validate rejects specs the simulator cannot honor.
func (s Spec) validate() error {
	for _, idx := range s.SlowAgents {
		if idx < 0 || idx >= s.Agents {
			return fmt.Errorf("fleet: slow agent index %d outside fleet of %d", idx, s.Agents)
		}
	}
	if s.Chaos != "" {
		if _, err := chaos.FindScenario(s.Chaos, s.Seed, s.Duration); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// Report is the machine-readable outcome of a fleet run: the effective spec
// and every rollup in order. A model report contains no wall-clock-derived
// field, so identical specs serialize byte-identically.
type Report struct {
	Spec    Spec              `json:"spec"`
	Rollups []obs.FleetRollup `json:"rollups"`
	// Live carries live-mode extras (migration accounting); nil on model
	// reports.
	Live *LiveSummary `json:"live,omitempty"`
}

// Final is the last rollup: the fleet picture at the end of the run. Run
// and RunLive always produce at least one.
func (r *Report) Final() obs.FleetRollup { return r.Rollups[len(r.Rollups)-1] }

// Run executes the deterministic virtual-time fleet simulation.
func Run(spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}

	agg := obs.NewFleetAggregator()
	servers := make([]*modelServer, spec.Servers)
	for i := range servers {
		servers[i] = newModelServer(spec, i)
	}
	slow := make(map[int]bool, len(spec.SlowAgents))
	for _, idx := range spec.SlowAgents {
		slow[idx] = true
	}
	agents := make([]*modelAgent, spec.Agents)
	for i := range agents {
		agents[i] = newModelAgent(spec, i, servers[i%spec.Servers], slow[i])
		agg.Register(agents[i].name, agents[i].profile.Name, agents[i].rec)
	}

	report := &Report{Spec: spec}
	steps := int(math.Ceil(spec.Duration / rollupEverySec))
	for step := 1; step <= steps; step++ {
		tEnd := math.Min(float64(step)*rollupEverySec, spec.Duration)
		for _, srv := range servers {
			srv.beginTick()
		}
		// Agent order is fixed, so per-tick server contention accounting is
		// deterministic.
		for _, ag := range agents {
			ag.advance(tEnd)
		}
		for _, srv := range servers {
			srv.endTick(rollupEverySec)
		}
		report.Rollups = append(report.Rollups, agg.Rollup(tEnd))
	}
	return report, nil
}
