package fleet

import (
	"fmt"
	"math/rand"

	"dive/internal/chaos"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

// The virtual-time fleet model. Each model agent captures frames at its
// profile's rate and "uploads" them through a seeded link model:
//
//	latency = propagation + bits/bandwidth(t) + serverService × contention
//
// Bits follow a GoP-shaped per-frame model (periodic intra spikes over a
// noisy P-frame floor), bandwidth comes from the per-agent chaos/fading
// trace, and the server's contention factor is a feedback loop on last
// tick's utilization — pile enough sessions on one server and every
// co-tenant's latency inflates, lifting the fleet's merged latency tail
// (TestRunServerContention). Frames inside a scripted outage window are
// covered by local MOT: they observe no latency and mark Outage in the SLO
// window, matching the real client's ack-timeout path.

const (
	// modelPropagationSec is the fixed one-way network delay.
	modelPropagationSec = 0.010
	// modelGoPLength spaces intra frames (3s at 12 fps).
	modelGoPLength = 36
	// modelPBitsPerPixel / modelIBitsPerPixel shape the GoP bit profile,
	// roughly DiVE's differential-encoding rates.
	modelPBitsPerPixel = 0.05
	modelIBitsPerPixel = 0.5
	// modelServiceBaseSec + bits/modelServiceBpsPerCore model uncontended
	// server decode+detect time per frame.
	modelServiceBaseSec    = 0.004
	modelServiceBpsPerCore = 2e8
	// slowBandwidthFactor / slowServiceExtraSec script the straggler
	// pathology: 5% of the link plus a flat 300ms of server-side delay —
	// far over the 250ms SLO target, well under the real client's 1s ack
	// timeout.
	slowBandwidthFactor = 0.05
	slowServiceExtraSec = 0.3
)

// modelProfiles cycles the fleet across the paper's dataset mix.
var modelProfiles = []func() world.Profile{
	world.NuScenesLike,
	world.RobotCarLike,
	world.KITTILike,
}

// modelServer models one edge instance's service capacity. Contention is a
// one-tick feedback loop: utilization accumulated during tick k sets the
// service-time multiplier for tick k+1 (factor = 1/(1-min(util, 0.99)), so
// a saturated server inflates co-tenant service times up to 100×).
type modelServer struct {
	cores  float64
	factor float64 // current tick's service multiplier
	busy   float64 // base service seconds accumulated this tick
}

func newModelServer(spec Spec, idx int) *modelServer {
	return &modelServer{cores: spec.ServerCores, factor: 1}
}

func (s *modelServer) beginTick() { s.busy = 0 }

// endTick folds this tick's utilization into the next tick's factor.
func (s *modelServer) endTick(tickSec float64) {
	util := s.busy / (tickSec * s.cores)
	if util > 0.99 {
		util = 0.99
	}
	s.factor = 1 / (1 - util)
}

// service returns the contended service time for one frame of the given
// size and charges its base cost to this tick's utilization.
func (s *modelServer) service(bits float64, rng *rand.Rand) float64 {
	base := (modelServiceBaseSec + bits/modelServiceBpsPerCore) * (0.9 + 0.2*rng.Float64())
	s.busy += base
	return base * s.factor
}

// modelAgent is one synthetic session: a seeded frame/link model plus a
// real obs.Recorder and SLO window, indistinguishable to the aggregator
// from a live session.
type modelAgent struct {
	name    string
	profile world.Profile
	rec     *obs.Recorder
	rng     *rand.Rand
	trace   netsim.Trace
	srv     *modelServer
	slow    bool

	lat       *obs.Histogram
	nextFrame float64 // virtual capture time of the next frame
	frameIdx  int
}

func newModelAgent(spec Spec, idx int, srv *modelServer, slow bool) *modelAgent {
	profile := modelProfiles[idx%len(modelProfiles)]()
	// Per-agent seed: deterministic in (spec seed, index), decorrelated
	// across agents so chaos windows and bit noise don't synchronize.
	seed := spec.Seed*1_000_003 + int64(idx)*7919
	rec := obs.NewRecorder(64)
	a := &modelAgent{
		name:    fmt.Sprintf("%s-%03d", profile.Name, idx),
		profile: profile,
		rec:     rec,
		rng:     rand.New(rand.NewSource(seed)),
		srv:     srv,
		slow:    slow,
		lat:     rec.Registry().Histogram(obs.StageResponse, obs.DefaultDurationBuckets),
		// Stagger capture phase so the fleet's frames don't arrive in
		// lockstep.
		nextFrame: float64(idx%7) / (7 * profile.FPS),
	}
	a.trace = a.linkTrace(spec, seed)
	return a
}

// linkTrace builds the agent's bandwidth trace: the named chaos scenario
// re-seeded per agent, or a clean fading link.
func (a *modelAgent) linkTrace(spec Spec, seed int64) netsim.Trace {
	if spec.Chaos == "" {
		return &netsim.FadingTrace{Base: netsim.Mbps(2), Swing: 0.3, Period: 6, Jitter: 0.15, Seed: seed}
	}
	sc, _ := chaos.FindScenario(spec.Chaos, seed, spec.Duration) // validate() checked the name
	return sc.Trace
}

// frameBits draws one frame's encoded size from the GoP model.
func (a *modelAgent) frameBits() float64 {
	pixels := float64(a.profile.W * a.profile.H)
	bpp := modelPBitsPerPixel
	if a.frameIdx%modelGoPLength == 0 {
		bpp = modelIBitsPerPixel
	}
	return pixels * bpp * (0.8 + 0.4*a.rng.Float64())
}

// advance processes every frame captured before tEnd.
func (a *modelAgent) advance(tEnd float64) {
	for a.nextFrame < tEnd {
		t := a.nextFrame
		bits := a.frameBits()
		bw := a.trace.BandwidthAt(t)
		if a.slow {
			bw *= slowBandwidthFactor
		}
		outage := bw <= 0

		a.rec.Counter(obs.MetricFrames).Inc()
		// FGShare proxy: stable foreground around 15% with seeded wobble,
		// drawn every frame so healthy and outage frames consume the same
		// random stream.
		fg := 0.15 + 0.05*(a.rng.Float64()-0.5)
		if outage {
			// Local MOT covers the frame: nothing crosses the link, no
			// latency sample, outage marked in the SLO window.
			a.rec.ObserveSLO(a.name, obs.SLOSample{LatencySec: -1, FGShare: fg, Outage: true})
		} else {
			service := a.srv.service(bits, a.rng)
			if a.slow {
				service += slowServiceExtraSec
			}
			latency := modelPropagationSec + bits/bw + service
			a.rec.Counter(obs.MetricBytes).Add(int64(bits / 8))
			a.lat.Observe(latency)
			a.rec.ObserveSLO(a.name, obs.SLOSample{LatencySec: latency, FGShare: fg})
		}
		a.frameIdx++
		a.nextFrame += 1 / a.profile.FPS
	}
}
