package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestHistogramMergeQuantileProperty is the merged-quantile accuracy
// property: splitting one observation stream across k histograms at random
// and merging them back must reproduce the unsplit histogram's p50/p95/p99
// exactly (bucket counts add, so the estimator sees identical input).
func TestHistogramMergeQuantileProperty(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := 2 + rng.Intn(6)
		n := 100 + rng.Intn(4000)

		whole := NewHistogram(DefaultDurationBuckets)
		parts := make([]*Histogram, k)
		for i := range parts {
			parts[i] = NewHistogram(DefaultDurationBuckets)
		}
		for i := 0; i < n; i++ {
			// Spread samples over the full bucket range, including overflow.
			v := math_exp(rng)
			whole.Observe(v)
			parts[rng.Intn(k)].Observe(v)
		}

		merged := NewHistogram(DefaultDurationBuckets)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}
		if merged.Count() != whole.Count() {
			t.Fatalf("trial %d: merged count %d != %d", trial, merged.Count(), whole.Count())
		}
		for _, q := range []float64{0.50, 0.95, 0.99} {
			if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
				t.Fatalf("trial %d: p%g merged %v != unsplit %v", trial, q*100, got, want)
			}
		}
	}
}

// math_exp draws a duration-like sample spanning the default buckets,
// including the overflow bucket.
func math_exp(rng *rand.Rand) float64 {
	return 25e-6 * math.Pow(10, rng.Float64()*6) // 25µs .. 25s
}

func TestHistogramMergeBoundsMismatch(t *testing.T) {
	a := NewHistogram([]float64{1, 2, 3})
	b := NewHistogram([]float64{1, 2, 4})
	if err := a.Merge(b); err == nil {
		t.Fatal("merge with different bounds should fail")
	}
	c := NewHistogram([]float64{1, 2})
	if err := a.Merge(c); err == nil {
		t.Fatal("merge with different bound count should fail")
	}
}

// TestLabelOverflowCounter checks that folding into OverflowLabel is
// surfaced on obs_label_overflow_total instead of happening silently.
func TestLabelOverflowCounter(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("frames", "session")
	for i := 0; i < MaxLabelValues; i++ {
		lc.With(fmt.Sprintf("s%d", i)).Inc()
	}
	if got := r.Inventory(); len(got) != 1 || got[0] != "counter frames session" {
		t.Fatalf("families = %v before cap hit, want the labeled one only (the overflow counter appears with the first fold)", got)
	}
	lc.With("over-a").Inc()
	lc.With("over-b").Inc()
	if got := r.Counter(MetricLabelOverflow).Value(); got != 2 {
		t.Fatalf("overflow counter = %d after 2 folds, want 2", got)
	}
	// Cached overflow child lookups still count: each With on a folded value
	// re-resolves, so repeated folded traffic stays visible.
	lc.With("over-a").Inc()
	if got := r.Counter(MetricLabelOverflow).Value(); got != 3 {
		t.Fatalf("overflow counter = %d after repeat fold, want 3", got)
	}
}

// fleetFixture registers n sessions on an aggregator, each with its own
// recorder, frames counter, latency histogram and SLO window.
func fleetFixture(t *testing.T, agg *FleetAggregator, n int, slow map[int]bool) []*Recorder {
	t.Helper()
	recs := make([]*Recorder, n)
	profiles := []string{"nuScenes", "robotcar", "kitti"}
	for i := 0; i < n; i++ {
		rec := NewRecorder(64)
		recs[i] = rec
		name := fmt.Sprintf("agent-%03d", i)
		profile := profiles[i%len(profiles)]
		lat := 0.05
		if slow[i] {
			lat = 0.8
		}
		for f := 0; f < 60; f++ {
			rec.Counter(MetricFrames).Inc()
			rec.Counter(MetricBytes).Add(1000)
			rec.Registry().Histogram(StageResponse, DefaultDurationBuckets).Observe(lat)
			rec.ObserveSLO(name, SLOSample{LatencySec: lat, FGShare: 0.2})
		}
		agg.Register(name, profile, rec)
	}
	return recs
}

// TestFleetAggregatorRollup checks totals, per-profile breakdowns and the
// straggler table against a fleet with two scripted slow sessions.
func TestFleetAggregatorRollup(t *testing.T) {
	agg := NewFleetAggregator()
	fleetFixture(t, agg, 12, map[int]bool{3: true, 7: true})

	ru := agg.Rollup(5.0)
	if ru.Sessions != 12 {
		t.Fatalf("sessions = %d, want 12", ru.Sessions)
	}
	if ru.FramesTotal != 12*60 {
		t.Fatalf("frames = %d, want %d", ru.FramesTotal, 12*60)
	}
	if ru.FramesPerSec != float64(12*60)/5.0 {
		t.Fatalf("fps = %v, want %v", ru.FramesPerSec, float64(12*60)/5.0)
	}
	if len(ru.PerProfile) != 3 {
		t.Fatalf("profiles = %d, want 3", len(ru.PerProfile))
	}
	var profFrames int64
	for _, p := range ru.PerProfile {
		profFrames += p.FramesTotal
	}
	if profFrames != ru.FramesTotal {
		t.Fatalf("per-profile frames %d != fleet %d", profFrames, ru.FramesTotal)
	}
	if len(ru.Stragglers) != 2 {
		t.Fatalf("stragglers = %+v, want agent-003 and agent-007", ru.Stragglers)
	}
	got := map[string]bool{}
	for _, s := range ru.Stragglers {
		got[s.Session] = true
		if s.Factor <= 3 {
			t.Fatalf("straggler factor %v should exceed 3", s.Factor)
		}
	}
	if !got["agent-003"] || !got["agent-007"] {
		t.Fatalf("stragglers = %+v", ru.Stragglers)
	}
	// The slow sessions' 0.8s latency blows the 0.25s/1% objective, so the
	// fleet-level aggregate burn must be visible too.
	if ru.FleetBurn <= 1 {
		t.Fatalf("fleet burn = %v, want > 1 with 2/12 sessions at 0.8s", ru.FleetBurn)
	}
	if ru.Unhealthy != 2 {
		t.Fatalf("unhealthy = %d, want 2", ru.Unhealthy)
	}

	// Second rollup: interval throughput, not whole-run average.
	ru2 := agg.Rollup(6.0)
	if ru2.Tick != 1 {
		t.Fatalf("tick = %d, want 1", ru2.Tick)
	}
	if ru2.FramesPerSec != 0 {
		t.Fatalf("interval fps = %v, want 0 (no new frames)", ru2.FramesPerSec)
	}
}

// TestFleetPerServerRollup checks the per-server dimension: ObserveServer
// rows surface in rollups with membership state and heartbeat age,
// NoteMigration balances in/out across members, and names past
// MaxLabelValues fold into the overflow row — the same rule as labeled
// metrics.
func TestFleetPerServerRollup(t *testing.T) {
	agg := NewFleetAggregator()
	fleetFixture(t, agg, 8, nil)

	agg.ObserveServer("edge-0", "healthy", 2, 0.05)
	agg.ObserveServer("edge-1", "down", 0, 1.5)
	agg.NoteMigration("edge-0", "edge-1")
	agg.NoteMigration("edge-0", "edge-1")

	ru := agg.Rollup(5.0)
	if len(ru.PerServer) != 2 {
		t.Fatalf("per-server rows = %+v, want 2", ru.PerServer)
	}
	rows := map[string]ServerRollup{}
	for _, r := range ru.PerServer {
		rows[r.Server] = r
	}
	e0, e1 := rows["edge-0"], rows["edge-1"]
	if e0.State != "healthy" || e0.Sessions != 2 || e0.LastHeartbeatAgeSec != 0.05 {
		t.Fatalf("edge-0 row = %+v", e0)
	}
	if e0.MigrationsOut != 2 || e0.MigrationsIn != 0 {
		t.Fatalf("edge-0 migrations = in %d out %d, want 0/2", e0.MigrationsIn, e0.MigrationsOut)
	}
	if e1.State != "down" || e1.MigrationsIn != 2 || e1.MigrationsOut != 0 {
		t.Fatalf("edge-1 row = %+v", e1)
	}

	// Members past MaxLabelValues distinct names fold into the overflow row.
	for i := 2; i < MaxLabelValues; i++ {
		agg.ObserveServer(fmt.Sprintf("edge-%02d", i), "healthy", 1, 0.01)
	}
	agg.ObserveServer("edge-over", "healthy", 4, 0.01)
	agg.NoteMigration("edge-over", "edge-0")
	ru2 := agg.Rollup(6.0)
	if len(ru2.PerServer) != MaxLabelValues+1 {
		t.Fatalf("per-server rows after overflow = %d, want %d", len(ru2.PerServer), MaxLabelValues+1)
	}
	last := ru2.PerServer[len(ru2.PerServer)-1]
	if last.Server != OverflowLabel {
		t.Fatalf("overflow row not last: %+v", ru2.PerServer)
	}
	if last.Sessions != 4 || last.MigrationsOut != 1 {
		t.Fatalf("overflow row = %+v, want edge-over's sessions and migration", last)
	}
	if rows2 := func() ServerRollup {
		for _, r := range ru2.PerServer {
			if r.Server == "edge-0" {
				return r
			}
		}
		return ServerRollup{}
	}(); rows2.MigrationsIn != 1 {
		t.Fatalf("edge-0 after overflow migration = %+v, want 1 in", rows2)
	}
}

// TestFleetAggregatorConcurrent is the registration-vs-aggregation race
// test: sessions register and observe from four goroutines while
// the test goroutine folds rollups the whole time, under -race.
func TestFleetAggregatorConcurrent(t *testing.T) {
	agg := NewFleetAggregator()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				rec := NewRecorder(16)
				name := fmt.Sprintf("g%d-s%d", g, i)
				agg.Register(name, "nuScenes", rec)
				for f := 0; f < 20; f++ {
					rec.Counter(MetricFrames).Inc()
					rec.Registry().Histogram(StageResponse, DefaultDurationBuckets).Observe(0.05)
					rec.ObserveSLO(name, SLOSample{LatencySec: 0.05, FGShare: 0.2})
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()

	tick := 0
	for {
		tick++
		agg.Rollup(float64(tick))
		select {
		case <-done:
			ru := agg.Rollup(float64(tick + 1))
			if ru.Sessions == 0 {
				t.Fatal("expected sessions after concurrent registration")
			}
			return
		default:
		}
	}
}
