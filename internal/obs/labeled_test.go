package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestLabeledCounterBasics(t *testing.T) {
	reg := NewRegistry()
	fam := reg.LabeledCounter("rpc_total", "session")
	fam.With("a").Add(3)
	fam.With("b").Inc()
	fam.With("b").Inc()
	if got := fam.With("a").Value(); got != 3 {
		t.Fatalf("a = %d, want 3", got)
	}
	// With returns the same child for the same value.
	if fam.With("a") != fam.With("a") {
		t.Fatal("With(a) returned distinct children")
	}
	// The same name returns the same family.
	if reg.LabeledCounter("rpc_total", "ignored") != fam {
		t.Fatal("second LabeledCounter call returned a new family")
	}
	var order []string
	fam.Each(func(v string, _ *Counter) { order = append(order, v) })
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("Each order = %v, want [a b]", order)
	}
}

func TestLabeledNilSafety(t *testing.T) {
	// Every path on a nil family, nil child, and nil recorder must be a
	// no-op — the contract that lets instrumentation sites skip guards.
	var c *LabeledCounter
	var g *LabeledGauge
	var h *LabeledHistogram
	c.With("x").Add(1)
	c.Each(func(string, *Counter) { t.Fatal("Each on nil family invoked fn") })
	g.With("x").Set(2)
	g.Each(func(string, *Gauge) { t.Fatal("Each on nil family invoked fn") })
	h.With("x").Observe(0.5)
	h.Each(func(string, *Histogram) { t.Fatal("Each on nil family invoked fn") })

	var rec *Recorder
	rec.LabeledCounter("a", "k").With("x").Inc()
	rec.LabeledGauge("b", "k").With("x").Set(1)
	rec.LabeledHistogram("c", "k").With("x").Observe(1)
	rec.ObserveSLO("s", SLOSample{LatencySec: 0.1})
}

func TestLabeledOverflowFold(t *testing.T) {
	reg := NewRegistry()
	fam := reg.LabeledCounter("sess_total", "session")
	for i := 0; i < MaxLabelValues; i++ {
		fam.With(fmt.Sprintf("s%02d", i)).Inc()
	}
	fam.With("c").Inc() // over the bound: folds into _overflow
	fam.With("d").Inc()
	if got := fam.With("s00").Value(); got != 1 {
		t.Fatalf("s00 = %d, want 1", got)
	}
	if got := fam.With(OverflowLabel).Value(); got != 2 {
		t.Fatalf("overflow = %d, want 2 (c and d folded)", got)
	}
	// Established values keep their own children after the fold.
	fam.With("s01").Inc()
	if got := fam.With("s01").Value(); got != 2 {
		t.Fatalf("s01 = %d, want 2", got)
	}
	values := 0
	fam.Each(func(string, *Counter) { values++ })
	if values != MaxLabelValues+1 {
		t.Fatalf("family holds %d values, want the first %d and %s", values, MaxLabelValues, OverflowLabel)
	}
}

func TestLabeledPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.LabeledCounter("edge_session_frames_total", "session").With("nuScenes-1").Add(7)
	reg.LabeledGauge("slo_burn_rate", "session").With("nuScenes-1").Set(1.5)
	reg.LabeledHistogram("edge_session_decode_seconds", "session", []float64{0.01, 0.1}).
		With("nuScenes-1").Observe(0.05)
	// An empty family must not emit even a TYPE line.
	reg.LabeledCounter("never_used_total", "session")

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE edge_session_frames_total counter",
		`edge_session_frames_total{session="nuScenes-1"} 7`,
		`slo_burn_rate{session="nuScenes-1"} 1.5`,
		`edge_session_decode_seconds_bucket{session="nuScenes-1",le="0.1"} 1`,
		`edge_session_decode_seconds_count{session="nuScenes-1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "never_used_total") {
		t.Errorf("empty family leaked into exposition:\n%s", out)
	}
}

func TestSnapshotIncludesLabeledFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.LabeledCounter("sess_frames", "session").With("a").Add(4)
	reg.LabeledGauge("sess_burn", "session").With("a").Set(0.5)
	reg.LabeledHistogram("sess_lat", "session", DefaultDurationBuckets).With("a").Observe(0.2)
	reg.LabeledCounter("empty", "session")

	s := reg.Snapshot()
	if got := s.LabeledCounters["sess_frames"]["a"]; got != 4 {
		t.Fatalf("snapshot counter = %d, want 4", got)
	}
	if got := s.LabeledGauges["sess_burn"]["a"]; got != 0.5 {
		t.Fatalf("snapshot gauge = %g, want 0.5", got)
	}
	if got := s.LabeledHistograms["sess_lat"]["a"].Count; got != 1 {
		t.Fatalf("snapshot histogram count = %d, want 1", got)
	}
	if _, ok := s.LabeledCounters["empty"]; ok {
		t.Fatal("empty family appeared in snapshot")
	}
}
