package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	v := make([]float64, 99)
	for i := range v {
		v[i] = float64(i)
	}
	if _, err := percentile(v, 0.90); err == nil {
		t.Fatal("p90 of 99 samples has 9.9 beyond it and must be refused")
	}
	v = append(v, 99)
	got, err := percentile(v, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if want := 89.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v, want %v", got, want)
	}
	if _, err := percentile(v, 0.99); err == nil {
		t.Fatal("p99 of 100 samples must be refused")
	}
	if _, err := percentile(v, 0.05); err == nil {
		t.Fatal("p5 of 100 samples has 5 below it and must be refused")
	}
	if _, err := percentile(v, 1); err == nil {
		t.Fatal("p100 is not a percentile")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{140, 120, 131}); got != 131 {
		t.Fatalf("median of three passes = %v", got)
	}
	if got := median([]float64{140, 120, 131, 133}); got != 132 {
		t.Fatalf("median of four passes = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of nothing = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 1,2,4 = %v, %v; Python gives 1, 4", q1, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120},  // sticks out of the parent by 20
		{ID: 5, Parent: 3, Start: 35, End: 45},   // grandchild: counts against span 3 only
		{ID: 6, Parent: 1, Start: 200, End: 210}, // wholly outside the parent
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 30 - 10, 30, 10, 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	lt := layerTimes([]span{{ID: 1, Layer: "codec", Name: "motion", Start: 0, End: 2e6}})
	if got := lt["codec.motion"]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("layerTimes = %v", lt)
	}
}

func TestTracerNilAndJSONL(t *testing.T) {
	var none *tracer
	if id := none.begin(0, "codec", "motion", 0, 0); id != 0 || none.end(id) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer("agent_clear")
	root := tr.begin(0, "bench", "frame", 2, 7)
	child := tr.begin(root, "codec", "motion", 2, 7)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeJSONL(path, []*tracer{nil, tr}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var rec struct {
		Trace, Layer, Name string
		ID, Parent         int32
		StartNs, EndNs     int64 `json:"-"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Trace != "agent_clear/2/7" || rec.Layer != "codec" || rec.Name != "motion" || rec.Parent != root {
		t.Fatalf("span line %+v", rec)
	}
}

// fakeResult fills every metric of a run with the given value.
func fakeResult(workload string, traced bool, v float64) *result {
	r := &result{Workload: workload, Traced: traced, Correct: true, Attempted: 10, WallS: 1}
	if traced {
		r.PerLayer = map[string]float64{}
		for _, s := range perLayerSpecs {
			r.PerLayer[s.Name] = v
		}
	} else {
		r.EndToEnd = map[string]float64{}
		for _, s := range endToEndSpecs {
			r.EndToEnd[s.Name] = v
		}
	}
	return r
}

func TestDriverLineHasExactlyTheContractKeys(t *testing.T) {
	for _, traced := range []bool{false, true} {
		line, err := fakeResult(wlAgentClear, traced, 1.5).driverLine()
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("keys of %s", line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		specs := endToEndSpecs
		if traced {
			specs = perLayerSpecs
		}
		if len(metrics) != len(specs) {
			t.Fatalf("%d metrics, want %d", len(metrics), len(specs))
		}
		for _, s := range specs {
			if m, ok := metrics[s.Name]; !ok || m.Value == nil || m.Unit != s.Unit {
				t.Fatalf("metric %s: %+v", s.Name, m)
			}
		}
	}
	r := fakeResult(wlAgentClear, false, 1)
	delete(r.EndToEnd, "fps")
	if _, err := r.driverLine(); err == nil {
		t.Fatal("a missing metric must be an error, not a silent gap")
	}
}

func TestResultsFileRoundTrip(t *testing.T) {
	f := &resultsFile{RunMeta: runMeta{GoVersion: "go1.x", NumCPU: 2, GOMAXPROCS: 2, Conns: 2, Seed: 7, Commit: "abc"}}
	for _, v := range []float64{100, 104, 96} {
		f.add(fakeResult(wlAgentClear, false, v))
	}
	f.add(fakeResult(wlAgentClear, true, 0.25))
	path := filepath.Join(t.TempDir(), "results.json")
	if err := f.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Fatalf("round trip changed the file:\n%+v\n%+v", f, back)
	}
	m := back.workload(wlAgentClear).Metrics["fps"]
	if m.Median != 100 || m.Kind != "end_to_end" || m.Unit != "1/s" || m.Bound == 0 || len(m.Values) != 3 {
		t.Fatalf("fps after round trip: %+v", m)
	}
	if m := back.workload(wlAgentClear).Metrics["codec.motion_share"]; m == nil || m.Kind != "per_layer" {
		t.Fatalf("per-layer metric lost: %+v", m)
	}
	var out bytes.Buffer
	back.print(&out)
	for _, s := range endToEndSpecs {
		if !strings.Contains(out.String(), s.Name) || !strings.Contains(out.String(), s.Unit) {
			t.Fatalf("printed report lacks %s [%s]", s.Name, s.Unit)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(gomaxprocs int, fps ...float64) *resultsFile {
		f := &resultsFile{RunMeta: runMeta{Conns: 2, GOMAXPROCS: gomaxprocs}}
		for _, v := range fps {
			for _, wl := range []string{wlAgentClear, wlServerReplay} {
				r := fakeResult(wl, false, 1)
				r.EndToEnd["fps"] = v
				f.add(r)
			}
		}
		return f
	}
	verdict := func(base, change *resultsFile, workload, metric string) string {
		for _, r := range compareFiles(base, change) {
			if r.Workload == workload && r.Metric == metric {
				return r.Verdict
			}
		}
		t.Fatalf("no row for %s %s", workload, metric)
		return ""
	}
	base := file(2, 100, 101, 99)
	if v := verdict(base, file(2, 97, 98, 96), wlAgentClear, "fps"); v != verdictOK {
		t.Fatalf("3%% slower, inside the bound: %s", v)
	}
	if v := verdict(base, file(2, 60, 61, 59), wlAgentClear, "fps"); v != verdictRegressed {
		t.Fatalf("40%% slower: %s", v)
	}
	if v := verdict(base, file(2, 70, 100, 130), wlAgentClear, "fps"); v != verdictUnresolved {
		t.Fatalf("same median, spread wider than the bound: %s", v)
	}
	if v := verdict(file(2, 70, 100, 130), file(2, 140, 150, 160), wlAgentClear, "fps"); v != verdictOK {
		t.Fatalf("every run better than every base run: %s", v)
	}
	if v := verdict(base, file(2, 100), wlAgentClear, "setup_s"); v != verdictOK {
		t.Fatalf("unchanged metric: %s", v)
	}
	// A different GOMAXPROCS makes loopback timings incomparable, and only those.
	if v := verdict(base, file(4, 50, 50, 50), wlServerReplay, "fps"); v != verdictIncomparable {
		t.Fatalf("server_replay fps across GOMAXPROCS: %s", v)
	}
	if v := verdict(base, file(4, 50, 50, 50), wlServerReplay, "kbit_frame"); v != verdictOK {
		t.Fatalf("server_replay kbit_frame across GOMAXPROCS: %s", v)
	}
	if v := verdict(base, file(4, 50, 50, 50), wlAgentClear, "fps"); v != verdictRegressed {
		t.Fatalf("agent_clear fps across GOMAXPROCS: %s", v)
	}

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := base.write(a); err != nil {
		t.Fatal(err)
	}
	if err := file(2, 60, 61, 59).write(b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-compare", a, b}, &out, &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Fatalf("compare exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, a}, &out, &out); code != 0 {
		t.Fatalf("compare of a file with itself exit %d:\n%s", code, out.String())
	}
}

// TestBenchmarkJSONMatchesSpecs keeps the driver's table and the tool's in
// step: names, units, directions, bounds, workloads and their order.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadSpec
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Workloads, workloadSpecs) {
		t.Fatalf("workloads differ:\n%+v\n%+v", decl.Workloads, workloadSpecs)
	}
	for _, w := range workloadSpecs {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Fatalf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the tool", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Fatalf("%s[%d]: declared %+v, tool has %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Fatalf("%s: bound of %s", kind, w.Name)
			case !bounded && g.Bound != nil:
				t.Fatalf("%s: %s must not carry a bound", kind, w.Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndSpecs, true)
	check("per_layer", decl.PerLayer, perLayerSpecs, false)
	if decl.EndToEnd[len(decl.EndToEnd)-1].Name != "setup_s" {
		t.Fatal("setup_s must be declared")
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" || decl.RunSeconds != runSeconds {
		t.Fatalf("paths %v run_seconds %d", decl.Paths, decl.RunSeconds)
	}
}

// TestQuickSmoke runs every workload end to end at smoke scale, checks that a
// second run from the same seed reproduces what must not depend on timing,
// and drives the traced run of the two workloads whose traced loops differ
// (the virtual-clock agent loop with outages, and the live session).
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	o := &options{workload: "all", seed: 5, quick: true, repeat: 1}
	first := map[string]*result{}
	for _, w := range workloadSpecs {
		res, err := runWorkload(o, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d of %d: %v", w.Name, res.Correct, res.Failed, res.Attempted, res.Notes)
		}
		if _, err := res.driverLine(); err != nil {
			t.Fatal(err)
		}
		for name, v := range res.EndToEnd {
			if name != "frame_ms_p90" && !(v > 0) { // p90 needs 100 samples, more than a smoke pass has
				t.Fatalf("%s: %s = %v", w.Name, name, v)
			}
		}
		first[w.Name] = res
	}
	// server_replay pre-encodes with agent_clear's agent: its set-up is a
	// second run of that agent from the same seed.
	if a, s := first[wlAgentClear].EndToEnd, first[wlServerReplay].EndToEnd; a["kbit_frame"] != s["kbit_frame"] || a["map"] != s["map"] {
		t.Fatalf("server_replay replays agent_clear's bitstreams: kbit %v vs %v, map %v vs %v", a["kbit_frame"], s["kbit_frame"], a["map"], s["map"])
	}
	if c, g := first[wlAgentClear].EndToEnd["map"], first[wlAgentTight].EndToEnd["map"]; !(c > g) {
		t.Fatalf("mAP on the clear link %v should beat the tight link's %v", c, g)
	}
	again, err := runWorkload(o, wlAgentTight)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first[wlAgentTight].EndToEnd, again.EndToEnd
	if a["kbit_frame"] != b["kbit_frame"] || a["map"] != b["map"] {
		t.Fatalf("same seed, different outputs: kbit %v vs %v, map %v vs %v", a["kbit_frame"], b["kbit_frame"], a["map"], b["map"])
	}
	// The runtime's own bookkeeping allocates now and then; the agent's count does not move.
	if d := math.Abs(a["allocs_frame"]-b["allocs_frame"]) / a["allocs_frame"]; d > 0.005 {
		t.Fatalf("allocs_frame %v vs %v", a["allocs_frame"], b["allocs_frame"])
	}

	o.trace = true
	o.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
	for _, name := range []string{wlAgentTight, wlLiveLockstep} {
		res, err := runWorkload(o, name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s traced: %v", name, res.Notes)
		}
		if _, err := res.driverLine(); err != nil {
			t.Fatal(err)
		}
		// A layer span lost or counted twice. Both sides of the ratio are
		// taken in the same pass; bench.layer_coverage on agent_tight is not
		// (a smoke pass is a few dozen frames, and one stall moves it by a third).
		c := res.PerLayer["bench.layer_coverage"]
		if name == wlAgentTight {
			c = res.Info["span_coverage"]
		}
		if c < 0.99 || c > 1.001 {
			t.Fatalf("%s: layer self times cover %.3f of the frame span", name, c)
		}
	}
	if len(o.tracers) == 0 {
		t.Fatal("no spans kept for -trace-out")
	}
}
