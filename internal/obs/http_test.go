package obs

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestNilRecorderHandlerReturns503 pins the disabled-telemetry contract:
// the handler can be mounted unconditionally and answers 503 everywhere
// instead of panicking or falling through to another mux.
func TestNilRecorderHandlerReturns503(t *testing.T) {
	var r *Recorder
	h := r.Handler()
	if h == nil {
		t.Fatal("nil recorder Handler() is nil")
	}
	for _, path := range []string{"/", "/metrics", "/debug/frames", "/debug/journal", "/debug/spans"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 503 {
			t.Errorf("%s: status %d, want 503", path, w.Code)
		}
	}
}

// TestMetricsEndpointPrometheusWellFormed drives real pipeline-ish metrics
// through /metrics and parses the exposition: every sample line must be
// "name value" or "name{le=...} value" with a numeric value, every metric
// must carry a preceding # TYPE line, and histograms must expose
// cumulative, monotonically non-decreasing buckets ending in +Inf plus
// _sum/_count.
func TestMetricsEndpointPrometheusWellFormed(t *testing.T) {
	rec := NewRecorder(8)
	rec.Counter(MetricFrames).Add(12)
	rec.Gauge(GaugeBWEstimate).Set(2e6)
	for i := 0; i < 40; i++ {
		rec.Histogram(StageResponse).Observe(0.004)
	}

	w := httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	typed := map[string]string{}
	var lastBucket int64
	var infSeen, sumSeen, countSeen bool
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[fields[2]] = fields[3]
			lastBucket = -1
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			if !strings.HasSuffix(base, "\"}") {
				t.Fatalf("malformed label set: %q", line)
			}
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE for %q", line, base)
		}
		if typed[base] == "histogram" {
			switch {
			case strings.Contains(name, "_bucket"):
				n, _ := strconv.ParseInt(val, 10, 64)
				if n < lastBucket {
					t.Fatalf("histogram buckets not cumulative at %q (%d < %d)", line, n, lastBucket)
				}
				lastBucket = n
				if strings.Contains(name, `le="+Inf"`) {
					infSeen = true
				}
			case strings.HasSuffix(name, "_sum"):
				sumSeen = true
			case strings.HasSuffix(name, "_count"):
				countSeen = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(typed) != 3 {
		t.Errorf("exposed %d metrics, want 3 (counter, gauge, histogram): %v", len(typed), typed)
	}
	if !infSeen || !sumSeen || !countSeen {
		t.Errorf("histogram exposition incomplete: +Inf=%v sum=%v count=%v", infSeen, sumSeen, countSeen)
	}
}

// TestDebugFramesRoundTripsThroughDecoder serves /debug/frames — the journal
// joined with the agent spans on trace ID — and decodes the body with the
// one JSONL reader, the exact path a consumer of a live agent takes.
func TestDebugFramesRoundTripsThroughDecoder(t *testing.T) {
	rec := NewRecorder(8)
	want := []FrameRecord{
		{Frame: 0, Type: "I", BaseQP: 30, Bits: 50000, EstBWBps: 2e6, EncodeMs: 8, TotalMs: 12},
		{Frame: 1, Type: "P", Moving: true, ReusedFG: true, BaseQP: 26, Bits: 20000, EstBWBps: 2.1e6,
			MotionMs: 2, EmitMs: 0.5, TotalMs: 9, AckBits: 20000, AckEndSec: 0.1},
	}
	for _, fr := range want {
		ctx := rec.StartTrace(fr.Frame)
		rec.RecordJournal(JournalRecord{
			TraceID: ctx.TraceID, Frame: fr.Frame, Type: fr.Type, Moving: fr.Moving, FGReused: fr.ReusedFG,
			BaseQP: fr.BaseQP, Bits: fr.Bits, EstBWBps: fr.EstBWBps,
		})
		for name, ms := range map[string]float64{"motion": fr.MotionMs, "encode": fr.EncodeMs, "emit": fr.EmitMs, "frame": fr.TotalMs} {
			if ms != 0 {
				rec.RecordSpan(ctx, name, "agent", 0, ms/1000)
			}
		}
		// Same stage name on the other side of the link: not the agent's.
		rec.RecordSpan(ctx, "encode", "edge", 0, 7)
	}
	rec.AmendJournalFrame(1, func(j *JournalRecord) { j.AckBits, j.AckEndSec = 20000, 0.1 })
	// A span whose journal record is gone (or never existed) joins nothing.
	rec.RecordSpan(TraceContext{TraceID: 99, Frame: 9}, "frame", "agent", 0, 1)

	w := httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/frames", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	got, err := ReadJSONL[FrameRecord](w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestIndexListsExactlyTheMountedPaths pins the route table: GET / names
// the seven built-in paths, each of which answers, and nothing that 404s.
func TestIndexListsExactlyTheMountedPaths(t *testing.T) {
	rec := NewRecorder(8)
	h := rec.Handler()
	status := func(path string) int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/", nil))
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) < 3 || lines[0] != "DiVE telemetry" || lines[1] != "" {
		t.Fatalf("index = %q", w.Body.String())
	}
	listed := map[string]bool{}
	for _, path := range lines[2:] {
		listed[path] = true
		if path == "/debug/pprof/" {
			continue // answers, but its index page runs the profiler's template; probe a child instead
		}
		if code := status(path); code == 404 {
			t.Errorf("index lists %s, which answers 404", path)
		}
	}
	for _, path := range []string{
		"/metrics", "/debug/frames", "/debug/journal", "/debug/spans",
		"/debug/slo", "/debug/runtime", "/debug/pprof/",
	} {
		if !listed[path] {
			t.Errorf("index does not list %s", path)
		}
	}
	if len(listed) != 7 {
		t.Errorf("index lists %d paths, want 7: %v", len(listed), lines[2:])
	}
	if status("/debug/pprof/cmdline") != 200 {
		t.Error("/debug/pprof/cmdline does not answer below the listed /debug/pprof/")
	}
	// /debug/cluster is served by diveserver -cluster on a mux of its own;
	// no process serves /debug/fleet and no doctor is mounted.
	for _, path := range []string{"/debug/vars", "/debug/doctor", "/debug/fleet", "/debug/cluster", "/debug", "/nope"} {
		if listed[path] || status(path) != 404 {
			t.Errorf("%s: listed=%t status=%d, want unlisted 404", path, listed[path], status(path))
		}
	}
}

// TestDebugJournalEndpoint serves /debug/journal and round-trips it through
// ReadJSONL.
func TestDebugJournalEndpoint(t *testing.T) {
	rec := NewRecorder(8)
	rec.RecordJournal(JournalRecord{TraceID: 1, Frame: 0, BaseQP: 28, RCTrials: []QPTrial{{QP: 25, Bits: 40000}}})
	w := httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/journal", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	got, err := ReadJSONL[JournalRecord](w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TraceID != 1 || len(got[0].RCTrials) != 1 {
		t.Fatalf("journal round-trip mangled: %+v", got)
	}
}

// TestDebugRuntimeEndpoint serves /debug/runtime and decodes the body as a
// RuntimeStats snapshot — the path divedoctor's gc-pressure follower polls.
func TestDebugRuntimeEndpoint(t *testing.T) {
	rec := NewRecorder(8)
	w := httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/runtime", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var st RuntimeStats
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.HeapLiveBytes == 0 || st.Goroutines == 0 || st.GOMAXPROCS == 0 {
		t.Errorf("implausible runtime snapshot: %+v", st)
	}
	// Serving the endpoint also refreshes the runtime gauges.
	if g := rec.Gauge(GaugeGoHeapLiveBytes).Value(); g <= 0 {
		t.Errorf("heap gauge not refreshed: %v", g)
	}
}
