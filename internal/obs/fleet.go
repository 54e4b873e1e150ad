package obs

import (
	"math"
	"sort"
	"sync"

	"dive/internal/geom"
)

// Fleet aggregation: the layer that turns N per-session telemetry streams
// into one fleet picture. Each session (one agent↔server stream) owns a
// Recorder; the FleetAggregator periodically folds every registered
// recorder's registry and SLO window into a FleetRollup — aggregate
// frames/sec, exactly-merged latency quantiles (Histogram.Merge over
// identical bounds), per-profile breakdowns, fleet error-budget burn, and a
// straggler table of sessions whose p99 or burn rate stands k× above the
// fleet median. Rollup returns each fold to its caller, which keeps the
// series (fleet.Report.Rollups) the fleet doctor detectors
// (straggler-session, fleet-burn) diagnose.

// What a rollup folds and how it judges stragglers. A session's frames,
// bytes and end-to-end latency are its MetricFrames / MetricBytes counters
// and StageResponse histogram; per-server rows are bounded by MaxLabelValues.
const (
	// FleetStragglerFactor is k: a session is a straggler when its p99
	// exceeds k× the fleet median p99, or its burn rate exceeds k×
	// max(median burn, 1).
	FleetStragglerFactor = 3.0
	// fleetMinSessionFrames excludes sessions with fewer SLO window samples
	// from both the medians and the straggler table (warm-up noise).
	fleetMinSessionFrames = 16
	// fleetMaxStragglers caps the straggler table per rollup (the worst
	// offenders by factor are kept).
	fleetMaxStragglers = 16
)

// Straggler is one row of the rollup's straggler table: a session whose
// latency tail or burn rate stands out against the fleet median.
type Straggler struct {
	Session string `json:"session"`
	Profile string `json:"profile,omitempty"`
	Frames  int    `json:"frames"`
	// LatencyP99Sec/BurnRate are the session's own window values.
	LatencyP99Sec float64 `json:"latency_p99_sec"`
	BurnRate      float64 `json:"burn_rate"`
	// Factor is how many multiples of the fleet median the worst dimension
	// sits at; Reason names that dimension ("latency-p99" or "burn-rate").
	Factor float64 `json:"factor"`
	Reason string  `json:"reason"`
}

// ProfileRollup is the fleet picture restricted to one world profile.
type ProfileRollup struct {
	Profile       string  `json:"profile"`
	Sessions      int     `json:"sessions"`
	FramesTotal   int64   `json:"frames_total"`
	LatencyP99Sec float64 `json:"latency_p99_sec"`
	MeanBurn      float64 `json:"mean_burn"`
	Unhealthy     int     `json:"unhealthy"`
}

// FleetRollup is one periodic fold of every session's telemetry into the
// fleet picture — one element of a fleet report's rollup series and the
// input of the fleet doctor detectors.
type FleetRollup struct {
	// Tick is the rollup sequence number (0-based).
	Tick int `json:"tick"`

	Sessions    int   `json:"sessions"`
	FramesTotal int64 `json:"frames_total"`
	BytesTotal  int64 `json:"bytes_total"`
	// FramesPerSec is the fleet throughput over the interval since the
	// previous rollup (whole-run average on the first).
	FramesPerSec float64 `json:"frames_per_sec"`

	// Latency quantiles of the exactly-merged per-session distributions.
	LatencyP50Sec float64 `json:"latency_p50_sec"`
	LatencyP95Sec float64 `json:"latency_p95_sec"`
	LatencyP99Sec float64 `json:"latency_p99_sec"`

	// FleetBurn is the frame-weighted aggregate burn rate: for each SLO
	// objective, the fleet-wide violation fraction over its budget, worst
	// objective kept. Unhealthy counts sessions whose own burn exceeds 1;
	// OutageFrac is the frame-weighted outage-tracked fraction.
	FleetBurn  float64 `json:"fleet_burn"`
	Unhealthy  int     `json:"unhealthy_sessions"`
	OutageFrac float64 `json:"outage_frac"`

	// MedianP99Sec is the per-session median p99 the latency straggler
	// factor is measured against.
	MedianP99Sec float64 `json:"median_p99_sec"`

	PerProfile []ProfileRollup `json:"per_profile,omitempty"`
	PerServer  []ServerRollup  `json:"per_server,omitempty"`
	Stragglers []Straggler     `json:"stragglers,omitempty"`
}

// ServerRollup is one cluster member's row in a rollup: how many sessions it
// carries, the migration flow through it, and how stale its last heartbeat
// is. Fed by ObserveServer/NoteMigration; row count is capped at
// MaxLabelValues with the overflow folded into one OverflowLabel row.
type ServerRollup struct {
	Server string `json:"server"`
	// State is the balancer's membership verdict ("healthy", "suspect",
	// "down", "draining") when a cluster feeds it; empty otherwise.
	State    string `json:"state,omitempty"`
	Sessions int    `json:"sessions"`
	// MigrationsIn/Out count completed session handoffs onto/off this member
	// since aggregator start.
	MigrationsIn  int64 `json:"migrations_in"`
	MigrationsOut int64 `json:"migrations_out"`
	// LastHeartbeatAgeSec is the age of the member's last successful health
	// probe at rollup time (-1 when never probed).
	LastHeartbeatAgeSec float64 `json:"last_heartbeat_age_sec"`
}

// sessionSource is one registered per-session telemetry stream.
type sessionSource struct {
	name    string
	profile string
	rec     *Recorder
}

// FleetAggregator folds per-session recorders into FleetRollups. All methods
// are safe for concurrent use; Register may race with Rollup (a rollup sees a
// point-in-time membership).
type FleetAggregator struct {
	mu       sync.Mutex
	sessions map[string]*sessionSource
	tick     int
	lastT    float64
	lastN    int64

	// Per-server dimension (cluster mode): member status snapshots and
	// migration counters, bounded at MaxLabelValues distinct names.
	serverMu sync.Mutex
	servers  map[string]*serverStat
}

// serverStat accumulates one member's row between rollups.
type serverStat struct {
	state    string
	sessions int
	hbAge    float64
	migIn    int64
	migOut   int64
}

// NewFleetAggregator builds an empty aggregator.
func NewFleetAggregator() *FleetAggregator {
	return &FleetAggregator{sessions: make(map[string]*sessionSource)}
}

// Register adds (or replaces) a session's telemetry source. profile groups
// the session in per-profile rollups; rec must outlive the registration.
func (a *FleetAggregator) Register(name, profile string, rec *Recorder) {
	if rec == nil {
		return
	}
	a.mu.Lock()
	a.sessions[name] = &sessionSource{name: name, profile: profile, rec: rec}
	a.mu.Unlock()
}

// serverStatFor returns (creating) the row for name, folded by foldLabel —
// the same cardinality rule as metric families; the aggregator has no
// registry, so its folds are not counted. Callers hold serverMu.
func (a *FleetAggregator) serverStatFor(name string) *serverStat {
	if a.servers == nil {
		a.servers = make(map[string]*serverStat)
	}
	st := a.servers[name]
	if st == nil {
		name, _ = foldLabel(name, len(a.servers))
		st = a.servers[name]
	}
	if st == nil {
		st = &serverStat{hbAge: -1}
		a.servers[name] = st
	}
	return st
}

// ObserveServer upserts one cluster member's status snapshot: its membership
// state, current session count and the age of its last successful heartbeat.
// Call once per member per rollup period.
func (a *FleetAggregator) ObserveServer(name, state string, sessions int, hbAgeSec float64) {
	if name == "" {
		return
	}
	a.serverMu.Lock()
	st := a.serverStatFor(name)
	st.state, st.sessions, st.hbAge = state, sessions, hbAgeSec
	a.serverMu.Unlock()
}

// NoteMigration attributes one completed session handoff: out of from, into
// to. Either side may be empty (unknown member).
func (a *FleetAggregator) NoteMigration(from, to string) {
	a.serverMu.Lock()
	if from != "" {
		a.serverStatFor(from).migOut++
	}
	if to != "" {
		a.serverStatFor(to).migIn++
	}
	a.serverMu.Unlock()
}

// serverRollups snapshots the per-server rows, name-sorted with the
// overflow row last.
func (a *FleetAggregator) serverRollups() []ServerRollup {
	a.serverMu.Lock()
	defer a.serverMu.Unlock()
	if len(a.servers) == 0 {
		return nil
	}
	out := make([]ServerRollup, 0, len(a.servers))
	for name, st := range a.servers {
		out = append(out, ServerRollup{
			Server: name, State: st.state, Sessions: st.sessions,
			MigrationsIn: st.migIn, MigrationsOut: st.migOut,
			LastHeartbeatAgeSec: st.hbAge,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].Server == OverflowLabel) != (out[j].Server == OverflowLabel) {
			return out[j].Server == OverflowLabel
		}
		return out[i].Server < out[j].Server
	})
	return out
}

// Rollup folds every registered session into one FleetRollup at the
// caller's clock (virtual seconds in the model, seconds since start live),
// which paces FramesPerSec.
func (a *FleetAggregator) Rollup(simTimeSec float64) FleetRollup {
	a.mu.Lock()
	sources := make([]*sessionSource, 0, len(a.sessions))
	for _, s := range a.sessions {
		sources = append(sources, s)
	}
	tick := a.tick
	a.tick++
	lastT, lastN := a.lastT, a.lastN
	a.mu.Unlock()
	sort.Slice(sources, func(i, j int) bool { return sources[i].name < sources[j].name })

	ru := fold(tick, simTimeSec, lastT, lastN, sources)
	ru.PerServer = a.serverRollups()

	a.mu.Lock()
	a.lastT, a.lastN = simTimeSec, ru.FramesTotal
	a.mu.Unlock()
	return ru
}

// profileAcc accumulates one profile's slice of the fold.
type profileAcc struct {
	sessions  int
	frames    int64
	lat       *Histogram
	burnSum   float64
	burnN     int
	unhealthy int
}

// fold computes the rollup over a fixed source list (no aggregator locks
// held — sources' own registries do their internal locking).
func fold(tick int, simTime, lastT float64, lastN int64, sources []*sessionSource) FleetRollup {
	ru := FleetRollup{Tick: tick, Sessions: len(sources)}
	fleetLat := NewHistogram(DefaultDurationBuckets)
	profiles := make(map[string]*profileAcc)

	type sessionStat struct {
		src *sessionSource
		st  SLOStatus
	}
	var stats []sessionStat
	var wFrames, wLatOver, wFGUnder, wOutage float64

	for _, src := range sources {
		reg := src.rec.Registry()
		frames := reg.Counter(MetricFrames).Value()
		bytes := reg.Counter(MetricBytes).Value()
		lat := reg.Histogram(StageResponse, DefaultDurationBuckets)
		ru.FramesTotal += frames
		ru.BytesTotal += bytes
		_ = fleetLat.Merge(lat)

		pa := profiles[src.profile]
		if pa == nil {
			pa = &profileAcc{lat: NewHistogram(DefaultDurationBuckets)}
			profiles[src.profile] = pa
		}
		pa.sessions++
		pa.frames += frames
		_ = pa.lat.Merge(lat)

		st, ok := src.rec.SLO().SessionStatus(src.name)
		if !ok {
			st, ok = src.rec.SLO().SessionStatus("")
		}
		if !ok || st.Frames == 0 {
			continue
		}
		stats = append(stats, sessionStat{src: src, st: st})
		pa.burnSum += st.BurnRate
		pa.burnN++
		if !st.Healthy {
			pa.unhealthy++
			ru.Unhealthy++
		}
		w := float64(st.Frames)
		wFrames += w
		wLatOver += w * st.LatencyOverFrac
		wFGUnder += w * st.FGUnderFrac
		wOutage += w * st.OutageFrac
	}

	ru.LatencyP50Sec = fleetLat.Quantile(0.50)
	ru.LatencyP95Sec = fleetLat.Quantile(0.95)
	ru.LatencyP99Sec = fleetLat.Quantile(0.99)
	if dt := simTime - lastT; dt > 0 && tick > 0 {
		ru.FramesPerSec = float64(ru.FramesTotal-lastN) / dt
	} else if simTime > 0 {
		ru.FramesPerSec = float64(ru.FramesTotal) / simTime
	}
	if wFrames > 0 {
		ru.OutageFrac = wOutage / wFrames
		latBurn := (wLatOver / wFrames) / SLOLatencyBudget
		fgBurn := (wFGUnder / wFrames) / SLOFGShareBudget
		outBurn := (wOutage / wFrames) / SLOMaxOutageFraction
		ru.FleetBurn = math.Max(latBurn, math.Max(fgBurn, outBurn))
	}

	// Per-session medians over warm sessions, then the straggler table.
	var p99s, burns []float64
	for _, s := range stats {
		if s.st.Frames < fleetMinSessionFrames {
			continue
		}
		p99s = append(p99s, s.st.LatencyP99Sec)
		burns = append(burns, s.st.BurnRate)
	}
	ru.MedianP99Sec = geom.Median(p99s)
	medianBurn := geom.Median(burns)
	for _, s := range stats {
		if s.st.Frames < fleetMinSessionFrames {
			continue
		}
		factor, reason := 0.0, ""
		if ru.MedianP99Sec > 0 {
			if f := s.st.LatencyP99Sec / ru.MedianP99Sec; f > factor {
				factor, reason = f, "latency-p99"
			}
		}
		// Burn factors are measured against max(median, 1): a fleet burning
		// near zero should not mark a session at burn 0.1 a straggler.
		if f := s.st.BurnRate / math.Max(medianBurn, 1); f > factor {
			factor, reason = f, "burn-rate"
		}
		if factor > FleetStragglerFactor {
			ru.Stragglers = append(ru.Stragglers, Straggler{
				Session:       s.src.name,
				Profile:       s.src.profile,
				Frames:        s.st.Frames,
				LatencyP99Sec: s.st.LatencyP99Sec,
				BurnRate:      s.st.BurnRate,
				Factor:        factor,
				Reason:        reason,
			})
		}
	}
	sort.Slice(ru.Stragglers, func(i, j int) bool {
		if ru.Stragglers[i].Factor != ru.Stragglers[j].Factor {
			return ru.Stragglers[i].Factor > ru.Stragglers[j].Factor
		}
		return ru.Stragglers[i].Session < ru.Stragglers[j].Session
	})
	if len(ru.Stragglers) > fleetMaxStragglers {
		ru.Stragglers = ru.Stragglers[:fleetMaxStragglers]
	}

	for _, name := range sortedKeys(profiles) {
		pa := profiles[name]
		pr := ProfileRollup{
			Profile:       name,
			Sessions:      pa.sessions,
			FramesTotal:   pa.frames,
			LatencyP99Sec: pa.lat.Quantile(0.99),
			Unhealthy:     pa.unhealthy,
		}
		if pa.burnN > 0 {
			pr.MeanBurn = pa.burnSum / float64(pa.burnN)
		}
		ru.PerProfile = append(ru.PerProfile, pr)
	}
	return ru
}
