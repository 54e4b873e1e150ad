package edge

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dive/internal/codec"
	"dive/internal/obs"
	"dive/internal/world"
)

// TestServerPerSessionMetrics serves three concurrent-profile sessions and
// asserts the telemetry recorder exposes per-session labeled series on
// /metrics and per-session SLO windows on /debug/slo — the fleet view a
// multi-agent deployment scrapes.
func TestServerPerSessionMetrics(t *testing.T) {
	rec := obs.NewRecorder(256)
	srv := NewServer()
	srv.Obs = rec
	addr, stop := startServer(t, srv)
	defer stop()

	const duration = 1.0
	seeds := []int64{101, 102, 103}
	const framesPerSession = 3
	for _, seed := range seeds {
		p := world.NuScenesLike()
		p.ClipDuration = duration
		clip := world.GenerateClip(p, seed)
		enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
		if err != nil {
			t.Fatal(err)
		}
		conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: seed, Duration: duration})
		for i := 0; i < framesPerSession; i++ {
			ef, err := enc.Encode(clip.Frames[i], codec.EncodeOptions{BaseQP: 14})
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(conn, &FrameMsg{Index: i, Bitstream: ef.Data, SentNanos: time.Now().UnixNano()}); err != nil {
				t.Fatal(err)
			}
			if res := readResult(t, conn, mr); res.Err != "" {
				t.Fatalf("seed %d frame %d: %s", seed, i, res.Err)
			}
		}
		conn.Close()
	}

	ts := httptest.NewServer(rec.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, seed := range seeds {
		session := fmt.Sprintf("nuScenes-%d", seed)
		for _, series := range []string{
			fmt.Sprintf("edge_session_frames_total{session=%q} %d", session, framesPerSession),
			fmt.Sprintf("edge_session_bytes_total{session=%q}", session),
			fmt.Sprintf("edge_session_decode_seconds_count{session=%q} %d", session, framesPerSession),
			fmt.Sprintf("edge_session_detect_seconds_count{session=%q} %d", session, framesPerSession),
			fmt.Sprintf("slo_burn_rate{session=%q}", session),
		} {
			if !strings.Contains(metrics, series) {
				t.Errorf("/metrics missing %s", series)
			}
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", metrics)
	}

	sresp, err := ts.Client().Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var doc struct {
		Sessions []obs.SLOStatus `json:"sessions"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Sessions) != len(seeds) {
		t.Fatalf("/debug/slo tracks %d sessions, want %d: %+v", len(doc.Sessions), len(seeds), doc.Sessions)
	}
	for _, st := range doc.Sessions {
		if st.Frames != framesPerSession {
			t.Errorf("session %s window has %d frames, want %d", st.Session, st.Frames, framesPerSession)
		}
	}
}

// TestServerSessionNackCounter corrupts one frame and asserts the NACK is
// attributed to the offending session's labeled counter.
func TestServerSessionNackCounter(t *testing.T) {
	rec := obs.NewRecorder(64)
	srv := NewServer()
	srv.Obs = rec
	addr, stop := startServer(t, srv)
	defer stop()

	conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 7, Duration: 1.0})
	defer conn.Close()
	if err := WriteFrame(conn, &FrameMsg{Index: 0, Bitstream: []byte{0xde, 0xad}}); err != nil {
		t.Fatal(err)
	}
	res := readResult(t, conn, mr)
	if !res.NeedKeyframe {
		t.Fatalf("garbage bitstream not NACKed: %+v", res)
	}
	got := rec.LabeledCounter(obs.MetricEdgeSessionNacks, obs.SessionLabel).With("nuScenes-7").Value()
	if got != 1 {
		t.Fatalf("session NACK counter = %d, want 1", got)
	}
}

// TestServerSessionLabelOverflow opens one session more than a metric family
// holds label values, against a default server: the session label is
// profile-seed and its only bound is the families' own (obs.MaxLabelValues,
// then obs.OverflowLabel). The 65th session lands in _overflow, and the
// overflow counter moves by exactly the families' own folds — one per family —
// with no second rule counting the same session again.
func TestServerSessionLabelOverflow(t *testing.T) {
	rec := obs.NewRecorder(64)
	srv := NewServer()
	srv.Obs = rec
	addr, stop := startServer(t, srv)
	defer stop()

	const duration = 0.25
	for seed := int64(1); seed <= obs.MaxLabelValues; seed++ {
		conn, _ := testSession(t, addr, Hello{Profile: "nuScenes", Seed: seed, Duration: duration})
		conn.Close()
	}
	if got := rec.Counter(obs.MetricLabelOverflow).Value(); got != 0 {
		t.Fatalf("overflow counter = %d with %d sessions, want 0", got, obs.MaxLabelValues)
	}

	// Session 65 streams one frame.
	const over = obs.MaxLabelValues + 1
	p := world.NuScenesLike()
	p.ClipDuration = duration
	clip := world.GenerateClip(p, over)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		t.Fatal(err)
	}
	ef, err := enc.Encode(clip.Frames[0], codec.EncodeOptions{BaseQP: 14})
	if err != nil {
		t.Fatal(err)
	}
	conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: over, Duration: duration})
	defer conn.Close()
	if err := WriteFrame(conn, &FrameMsg{Index: 0, Bitstream: ef.Data}); err != nil {
		t.Fatal(err)
	}
	if res := readResult(t, conn, mr); res.Err != "" {
		t.Fatalf("session %d: %s", over, res.Err)
	}

	counters := []*obs.LabeledCounter{
		rec.LabeledCounter(obs.MetricEdgeSessionFrames, obs.SessionLabel),
		rec.LabeledCounter(obs.MetricEdgeSessionBytes, obs.SessionLabel),
		rec.LabeledCounter(obs.MetricEdgeSessionNacks, obs.SessionLabel),
	}
	histograms := []*obs.LabeledHistogram{
		rec.LabeledHistogram(obs.StageEdgeSessionDecode, obs.SessionLabel),
		rec.LabeledHistogram(obs.StageEdgeSessionDetect, obs.SessionLabel),
	}
	checkLabels := func(family int, labels []string) {
		t.Helper()
		sessions, overflow := 0, 0
		for _, l := range labels {
			switch {
			case l == obs.OverflowLabel:
				overflow++
			case strings.HasPrefix(l, "nuScenes-") && l != fmt.Sprintf("nuScenes-%d", over):
				sessions++
			default:
				t.Errorf("family %d: unexpected label %q", family, l)
			}
		}
		if sessions != obs.MaxLabelValues || overflow != 1 {
			t.Errorf("family %d: %d session series and %d overflow series, want %d and 1", family, sessions, overflow, obs.MaxLabelValues)
		}
	}
	for i, fam := range counters {
		var labels []string
		fam.Each(func(v string, _ *obs.Counter) { labels = append(labels, v) })
		checkLabels(i, labels)
	}
	for i, fam := range histograms {
		var labels []string
		fam.Each(func(v string, _ *obs.Histogram) { labels = append(labels, v) })
		checkLabels(len(counters)+i, labels)
	}
	if got := counters[0].With(obs.OverflowLabel).Value(); got != 1 {
		t.Errorf("frames{session=%q} = %d, want session %d's one frame", obs.OverflowLabel, got, over)
	}
	families := int64(len(counters) + len(histograms))
	if got := rec.Counter(obs.MetricLabelOverflow).Value(); got != families {
		t.Fatalf("overflow counter = %d after one session past the bound, want %d (one fold per family)", got, families)
	}

	// A returning session finds its own series: no fold.
	conn1, _ := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 1, Duration: duration})
	conn1.Close()
	if got := rec.Counter(obs.MetricLabelOverflow).Value(); got != families {
		t.Fatalf("overflow counter = %d after a returning session, want still %d", got, families)
	}
}

// TestServerRejectedHellosMintNoLabels sends 100 Hellos with distinct unknown
// profiles and one resume beyond the clip's end: none of them is a session,
// so none may count as one or take a value out of the session label's
// cardinality budget — the next valid session still gets a series of its own.
func TestServerRejectedHellosMintNoLabels(t *testing.T) {
	rec := obs.NewRecorder(64)
	srv := NewServer()
	srv.Obs = rec
	addr, stop := startServer(t, srv)
	defer stop()

	const duration = 0.25
	conn, _ := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 1, Duration: duration})
	conn.Close()

	families := map[string]func() []string{}
	for _, name := range []string{obs.MetricEdgeSessionFrames, obs.MetricEdgeSessionBytes, obs.MetricEdgeSessionNacks} {
		fam := rec.LabeledCounter(name, obs.SessionLabel)
		families[name] = func() (ls []string) {
			fam.Each(func(v string, _ *obs.Counter) { ls = append(ls, v) })
			return ls
		}
	}
	for _, name := range []string{obs.StageEdgeSessionDecode, obs.StageEdgeSessionDetect} {
		fam := rec.LabeledHistogram(name, obs.SessionLabel)
		families[name] = func() (ls []string) {
			fam.Each(func(v string, _ *obs.Histogram) { ls = append(ls, v) })
			return ls
		}
	}
	check := func(when string, sessions int64, labels ...string) {
		t.Helper()
		if got := rec.Counter(obs.MetricEdgeSessions).Value(); got != sessions {
			t.Errorf("%s: %s = %d, want %d", when, obs.MetricEdgeSessions, got, sessions)
		}
		for name, list := range families {
			if got := list(); strings.Join(got, ",") != strings.Join(labels, ",") {
				t.Errorf("%s: %s has session labels %v, want %v", when, name, got, labels)
			}
		}
	}
	check("after one session", 1, "nuScenes-1")

	reject := func(h Hello) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteHello(conn, h); err != nil {
			t.Fatal(err)
		}
		if res := readResult(t, conn, NewMsgReader(conn)); res.Err == "" {
			t.Fatalf("Hello %+v accepted", h)
		}
	}
	for i := 0; i < 100; i++ {
		reject(Hello{Profile: fmt.Sprintf("no-such-profile-%d", i), Seed: int64(i)})
	}
	reject(Hello{Profile: "nuScenes", Seed: 2, Duration: duration, Resume: true, FirstFrame: 1 << 20})
	check("after 101 rejected Hellos", 1, "nuScenes-1")
	if got := rec.Counter(obs.MetricLabelOverflow).Value(); got != 0 {
		t.Errorf("overflow counter = %d after rejected Hellos, want 0", got)
	}

	conn, _ = testSession(t, addr, Hello{Profile: "nuScenes", Seed: 3, Duration: duration})
	conn.Close()
	check("after the next valid session", 2, "nuScenes-1", "nuScenes-3")
}
