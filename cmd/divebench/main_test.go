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
	Scale          string             `json:"scale"`
	RunMeta        *obs.RunMeta       `json:"run_meta"`
	ExperimentSecs map[string]float64 `json:"experiment_secs"`
	Results        map[string]any     `json:"results"`
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
	if res.Scale != "smoke" || res.RunMeta == nil || res.RunMeta.GoVersion == "" {
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
	if got := keys(res.Results); strings.Join(got, ",") != "abl2,t1" {
		t.Errorf("results keys = %v, want [abl2 t1]", got)
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

// TestOnlyNoneIsRejected: -only none, which once ran nothing, is now an
// unknown id; it still runs nothing and writes no results file.
func TestOnlyNoneIsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	var out bytes.Buffer
	err := run([]string{"-only", "none", "-scale", "smoke", "-json", path}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "none"`) {
		t.Fatalf("-only none: error %v, want unknown experiment \"none\"", err)
	}
	if out.Len() != 0 {
		t.Errorf("-only none printed:\n%s", out.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-only none wrote %s (stat error %v)", path, err)
	}
}

func TestRejectsUnknownSelectionsAndRemovedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-only", "nope"}, "(valid: t1,f6,f7,f9,f10,f11,f12,f13,f14,f16,abl,abl2,night,f17)"},
		{[]string{"-only", "t1,f61"}, `"f61"`},
		{[]string{"-scale", "huge"}, "smoke, default, full"},
		{[]string{"-telemetry"}, "flag provided but not defined"},
		{[]string{"-speedup=false"}, "flag provided but not defined"},
		{[]string{"-throughput"}, "flag provided but not defined"},
		{[]string{"-throughput-secs", "1"}, "flag provided but not defined"},
		{[]string{"-streams", "4"}, "flag provided but not defined"},
		{[]string{"-streams-secs", "2"}, "flag provided but not defined"},
		{[]string{"-runtime-log", "runtime.jsonl"}, "flag provided but not defined"},
		{[]string{"-workers", "1"}, "flag provided but not defined"},
	} {
		// A smoke-scale t1 first, so an invocation that is wrongly accepted
		// runs one short experiment before it fails the test.
		err := run(append([]string{"-json", "", "-scale", "smoke", "-only", "t1"}, tc.args...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
