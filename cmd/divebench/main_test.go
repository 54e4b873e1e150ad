package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dive/internal/obs"
)

// benchJSON is the part of the -json schema the tests read back, declared
// apart from benchResults so that a renamed JSON field fails here.
type benchJSON struct {
	Scale          string                 `json:"scale"`
	RunMeta        *obs.RunMeta           `json:"run_meta"`
	ExperimentSecs map[string]float64     `json:"experiment_secs"`
	EndToEnd       []map[string]any       `json:"end_to_end"`
	MultiStream    *struct{ Rungs []any } `json:"multistream"`
	Runtime        *obs.RuntimeStats      `json:"runtime"`
}

func runJSON(t *testing.T, args ...string) (benchJSON, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.json")
	var out bytes.Buffer
	if err := run(append(args, "-scale", "smoke", "-json", path), &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res benchJSON
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if res.Scale != "smoke" || res.RunMeta == nil || res.RunMeta.GoVersion == "" || res.Runtime == nil {
		t.Fatalf("results header incomplete: %s", data)
	}
	return res, out.String()
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestOnlySelectsExactlyTheNamedExperiments(t *testing.T) {
	// Given out of registry order; printed in it.
	res, out := runJSON(t, "-only", "abl2, t1")
	if got := keys(res.ExperimentSecs); strings.Join(got, ",") != "abl2,t1" {
		t.Fatalf("experiment_secs keys = %v, want [abl2 t1]", got)
	}
	t1, abl2 := strings.Index(out, "[t1 took"), strings.Index(out, "[abl2 took")
	if t1 < 0 || abl2 < t1 {
		t.Fatalf("tables not printed in registry order:\n%s", out)
	}
	if len(res.EndToEnd) != 0 || res.MultiStream != nil {
		t.Errorf("unselected outputs present: %d end_to_end rows, multistream %v", len(res.EndToEnd), res.MultiStream)
	}
}

// TestEndToEndRowsReachJSON: the f16 / f17 entries hand their typed rows
// through the registry into end_to_end, field names unchanged.
func TestEndToEndRowsReachJSON(t *testing.T) {
	res, _ := runJSON(t, "-only", "f16")
	if len(res.EndToEnd) == 0 {
		t.Fatal("-only f16 wrote no end_to_end rows")
	}
	for _, field := range []string{"dataset", "scheme", "bandwidth_mbps", "map", "p50_rt_sec", "p95_rt_sec", "bitrate_mbps", "frames"} {
		if _, ok := res.EndToEnd[0][field]; !ok {
			t.Errorf("end_to_end row lacks %q: %v", field, res.EndToEnd[0])
		}
	}
}

func TestOnlyNoneRunsNothing(t *testing.T) {
	res, out := runJSON(t, "-only", "none")
	if len(res.ExperimentSecs) != 0 || strings.Contains(out, "took") {
		t.Fatalf("-only none ran %v:\n%s", keys(res.ExperimentSecs), out)
	}
}

func TestRejectsUnknownSelectionsAndRemovedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-only", "nope"}, "t1,f6,f7,f9,f10,f11,f12,f13,f14,f16,abl,abl2,night,f17, or none"},
		{[]string{"-only", "t1,f61"}, `"f61"`},
		{[]string{"-scale", "huge"}, "smoke, default, full"},
		{[]string{"-telemetry"}, "flag provided but not defined"},
		{[]string{"-speedup=false"}, "flag provided but not defined"},
		{[]string{"-throughput"}, "flag provided but not defined"},
		{[]string{"-throughput-secs", "1"}, "flag provided but not defined"},
	} {
		// -only none first, so an invocation that is wrongly accepted runs
		// nothing before it fails the test.
		err := run(append([]string{"-json", "", "-only", "none"}, tc.args...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

func TestStreamsLadderAndRuntimeLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "runtime.jsonl")
	res, out := runJSON(t, "-only", "none", "-streams", "1", "-streams-secs", "0.2", "-runtime-log", logPath)
	if res.MultiStream == nil || len(res.MultiStream.Rungs) != 1 {
		t.Fatalf("multistream = %+v, want one rung", res.MultiStream)
	}
	if got := keys(res.ExperimentSecs); strings.Join(got, ",") != "streams" {
		t.Errorf("experiment_secs keys = %v, want [streams]", got)
	}
	if !strings.Contains(out, "Multi-stream packing") {
		t.Errorf("ladder table not printed:\n%s", out)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := obs.ReadJSONL[obs.RuntimeStats](f)
	if err != nil {
		t.Fatalf("runtime log does not parse as []obs.RuntimeStats: %v", err)
	}
	// A 0.2 s window holds at most one 150 ms tick; what is pinned is the
	// format, not a sample count.
	for _, s := range samples {
		if s.HeapLiveBytes == 0 || s.GOMAXPROCS < 1 {
			t.Errorf("runtime sample missing fields: %+v", s)
		}
	}
}
