package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSLOHealthyWithinBudget(t *testing.T) {
	tr := NewSLOTracker(nil)
	for i := 0; i < 100; i++ {
		tr.Observe("s", SLOSample{LatencySec: 0.05, FGShare: 0.10})
	}
	st, ok := tr.SessionStatus("s")
	if !ok {
		t.Fatal("session not tracked")
	}
	if !st.Healthy || st.BurnRate != 0 {
		t.Fatalf("healthy window reported burn %g healthy=%t", st.BurnRate, st.Healthy)
	}
	if st.Frames != 100 {
		t.Fatalf("frames = %d, want 100", st.Frames)
	}
	if st.LatencyP99Sec != 0.05 {
		t.Fatalf("p99 = %g, want 0.05", st.LatencyP99Sec)
	}
}

func TestSLOBurnDuringFaultAndRecovery(t *testing.T) {
	// A fault window pushes outage-tracked frames well over the 5% budget;
	// burn must exceed 1 during the fault and fall back under once enough
	// healthy frames slide the window past it.
	tr := NewSLOTracker(nil)
	for i := 0; i < SLOWindowFrames*4/5; i++ {
		tr.Observe("s", SLOSample{LatencySec: 0.05, FGShare: 0.10})
	}
	for i := 0; i < SLOWindowFrames/5; i++ { // outage burst: 20% of the window
		tr.Observe("s", SLOSample{LatencySec: 0.40, FGShare: 0.10, Outage: true})
	}
	st, _ := tr.SessionStatus("s")
	if st.Healthy {
		t.Fatalf("fault window reported healthy: %+v", st)
	}
	if st.OutageFrac != 0.2 {
		t.Fatalf("outage frac = %g, want 0.2", st.OutageFrac)
	}
	if want := 0.2 / 0.05; st.OutageBurn != want {
		t.Fatalf("outage burn = %g, want %g", st.OutageBurn, want)
	}
	if st.BurnRate < st.OutageBurn {
		t.Fatalf("burn rate %g below worst objective %g", st.BurnRate, st.OutageBurn)
	}

	// Recovery: a full window of healthy frames displaces the fault.
	for i := 0; i < SLOWindowFrames; i++ {
		tr.Observe("s", SLOSample{LatencySec: 0.05, FGShare: 0.10})
	}
	st, _ = tr.SessionStatus("s")
	if !st.Healthy || st.OutageFrac != 0 {
		t.Fatalf("post-recovery window still unhealthy: %+v", st)
	}
}

func TestSLOUnobservedDimensions(t *testing.T) {
	// Server-side samples carry no FG share (negative); agent-side outage
	// samples may carry no latency. Unobserved dimensions must not count as
	// violations.
	tr := NewSLOTracker(nil)
	for i := 0; i < 10; i++ {
		tr.Observe("s", SLOSample{LatencySec: 0.05, FGShare: -1})
	}
	st, _ := tr.SessionStatus("s")
	if st.FGShareBurn != 0 || st.FGShareMean != 0 {
		t.Fatalf("unobserved FG dimension burned: %+v", st)
	}
	if !st.Healthy {
		t.Fatalf("latency-only window unhealthy: %+v", st)
	}
}

func TestSLOSessionOverflowFold(t *testing.T) {
	reg := NewRegistry()
	tr := NewSLOTracker(reg)
	for i := 0; i < MaxLabelValues+2; i++ {
		tr.Observe(fmt.Sprintf("s%02d", i), SLOSample{LatencySec: 0.05, FGShare: 0.1})
	}
	tr.Observe("s00", SLOSample{LatencySec: 0.05, FGShare: 0.1}) // established: not a fold
	// The tracker folds by the same rule as metric families, so its folds
	// are counted on the same counter.
	if got := reg.Counter(MetricLabelOverflow).Value(); got != 2 {
		t.Fatalf("overflow counter = %d after 2 folded sessions, want 2", got)
	}
	sts := tr.Status()
	if len(sts) != MaxLabelValues+1 {
		t.Fatalf("tracked %d sessions, want the first %d and %s", len(sts), MaxLabelValues, OverflowLabel)
	}
	ov, ok := tr.SessionStatus(OverflowLabel)
	if !ok || ov.Frames != 2 {
		t.Fatalf("overflow window = %+v ok=%t, want 2 folded frames", ov, ok)
	}
}

func TestSLOStatusPublishesLabeledGauges(t *testing.T) {
	reg := NewRegistry()
	tr := NewSLOTracker(reg)
	for i := 0; i < 10; i++ {
		tr.Observe("sess-1", SLOSample{LatencySec: 0.40, FGShare: 0.1, Outage: true})
	}
	tr.Status()
	if got := reg.LabeledGauge(GaugeSLOBurnRate, SessionLabel).With("sess-1").Value(); got <= 1 {
		t.Fatalf("burn gauge = %g, want > 1 for an all-outage window", got)
	}
	if got := reg.LabeledGauge(GaugeSLOLatencyP99, SessionLabel).With("sess-1").Value(); got != 0.40 {
		t.Fatalf("p99 gauge = %g, want 0.40", got)
	}
	if got := reg.LabeledGauge(GaugeSLOOutageFrac, SessionLabel).With("sess-1").Value(); got != 1 {
		t.Fatalf("outage gauge = %g, want 1", got)
	}
}

func TestSLODebugEndpoint(t *testing.T) {
	rec := NewRecorder(16)
	for i := 0; i < 20; i++ {
		rec.ObserveSLO("sess-1", SLOSample{LatencySec: 0.30, FGShare: 0.1})
	}
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Config   struct{ WindowFrames, MaxSessions int } `json:"config"`
		Sessions []SLOStatus                             `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Config.WindowFrames != SLOWindowFrames || doc.Config.MaxSessions != MaxLabelValues {
		t.Fatalf("config block = %+v, want the package constants", doc.Config)
	}
	if len(doc.Sessions) != 1 || doc.Sessions[0].Session != "sess-1" {
		t.Fatalf("sessions = %+v, want one sess-1 row", doc.Sessions)
	}
	if doc.Sessions[0].Healthy {
		t.Fatal("all frames over latency target reported healthy")
	}

	// The burn also lands on /metrics as a labeled gauge.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `slo_burn_rate{session="sess-1"}`) {
		t.Fatalf("/metrics missing slo_burn_rate series:\n%s", sb.String())
	}
}

func TestSLONilSafety(t *testing.T) {
	var tr *SLOTracker
	tr.Observe("s", SLOSample{})
	if tr.Status() != nil {
		t.Fatal("nil tracker Status != nil")
	}
	if _, ok := tr.SessionStatus("s"); ok {
		t.Fatal("nil tracker claims a session")
	}
	var rec *Recorder
	if rec.SLO() != nil {
		t.Fatal("nil recorder SLO() != nil")
	}
	rec.ObserveSLO("s", SLOSample{})
}
