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
	Results        map[string]any         `json:"results"`
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

func keys[V any](m map[string]V) []string {
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
	if got := keys(res.Results); strings.Join(got, ",") != "abl2,t1" || res.MultiStream != nil {
		t.Errorf("results keys = %v, multistream %v; want [abl2 t1] and none", got, res.MultiStream)
	}
}

// TestEndToEndRowsReachJSON: the f16 entry's typed rows reach results.f16,
// under the JSON names the end-to-end rows have always had.
func TestEndToEndRowsReachJSON(t *testing.T) {
	res, _ := runJSON(t, "-only", "f16")
	rows, _ := res.Results["f16"].([]any)
	if len(rows) == 0 {
		t.Fatalf("-only f16 wrote no results.f16 rows: %v", res.Results)
	}
	row, _ := rows[0].(map[string]any)
	for _, field := range []string{"dataset", "scheme", "bandwidth_mbps", "map", "car_ap", "ped_ap", "mean_rt_sec", "p50_rt_sec", "p95_rt_sec", "bitrate_mbps", "frames"} {
		if _, ok := row[field]; !ok {
			t.Errorf("results.f16 row lacks %q: %v", field, rows[0])
		}
	}
	if len(row) != 11 {
		t.Errorf("results.f16 row has %d fields, want the 11 above: %v", len(row), row)
	}
}

func TestOnlyNoneRunsNothing(t *testing.T) {
	res, out := runJSON(t, "-only", "none")
	if len(res.ExperimentSecs) != 0 || strings.Contains(out, "took") {
		t.Fatalf("-only none ran %v:\n%s", keys(res.ExperimentSecs), out)
	}
	if res.Results != nil {
		t.Errorf("-only none wrote results: %v", res.Results)
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
