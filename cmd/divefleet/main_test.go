package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dive/internal/fleet"
)

// TestRunDeterministicOutput: identical flags must print byte-identical
// JSON reports — the property CI diffs on.
func TestRunDeterministicOutput(t *testing.T) {
	args := []string{"-agents", "30", "-duration", "10", "-seed", "7", "-chaos", "outage-burst", "-json"}
	var out1, out2 bytes.Buffer
	if _, err := run(args, &out1); err != nil {
		t.Fatal(err)
	}
	if _, err := run(args, &out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("identical invocations printed different reports")
	}
	var rep fleet.Report
	if err := json.Unmarshal(out1.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if f := rep.Final(); f.Sessions != 30 || f.FramesTotal == 0 {
		t.Fatalf("final rollup %+v, want 30 sessions with frames", f)
	}
}

// TestRunStragglerTable scripts a slow link and checks both the report and
// the human summary surface it.
func TestRunStragglerTable(t *testing.T) {
	var out bytes.Buffer
	rep, err := run([]string{"-agents", "20", "-duration", "10", "-seed", "3", "-slow", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Final().Stragglers; len(s) != 1 || s[0].Session != "RobotCar-004" {
		t.Fatalf("straggler table %+v, want exactly RobotCar-004", s)
	}
	text := out.String()
	for _, want := range []string{"stragglers", "RobotCar-004", "per-profile"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-slow", "nope"}, &out); err == nil {
		t.Error("bad -slow accepted")
	}
	if _, err := run([]string{"-agents", "5", "-slow", "9", "-duration", "1"}, &out); err == nil {
		t.Error("out-of-range slow index accepted")
	}
	if _, err := run([]string{"-chaos", "full-moon", "-duration", "1"}, &out); err == nil {
		t.Error("unknown chaos scenario accepted")
	}
	// A flag the chosen mode never reads, a -kill-frac that never kills, or
	// a value the run would replace with a default or fail to encode, is an
	// error naming the flag, returned before any fleet runs.
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-live", "-chaos", "outage-burst"}, "-chaos"},
		{[]string{"-live", "-slow", "0"}, "-slow"},
		{[]string{"-live", "-cores", "4"}, "-cores"},
		{[]string{"-cluster", "3"}, "-cluster"},
		{[]string{"-kill-frac", "0.5"}, "-kill-frac"},
		{[]string{"-journal-dir", t.TempDir()}, "-journal-dir"},
		{[]string{"-live", "-kill-frac", "0.5"}, "-kill-frac"},
		{[]string{"-live", "-cluster", "2", "-kill-frac", "0"}, "-kill-frac"},
		{[]string{"-live", "-cluster", "2", "-kill-frac", "1.5"}, "-kill-frac"},
		{[]string{"-live", "-cluster", "2", "-kill-frac", "NaN"}, "-kill-frac"},
		{[]string{"-live", "-cluster", "2", "-servers", "2"}, "-servers"},
		{[]string{"-duration", "NaN"}, "-duration"},
		{[]string{"-duration", "-5"}, "-duration"},
		{[]string{"-duration", "0"}, "-duration"},
		{[]string{"-duration", "3601"}, "-duration"},
		{[]string{"-cores", "NaN"}, "-cores"},
		{[]string{"-cores", "-2"}, "-cores"},
		{[]string{"-cores", "+Inf"}, "-cores"},
		{[]string{"-agents", "0"}, "-agents"},
		{[]string{"-servers", "-3"}, "-servers"},
		{[]string{"-live", "-servers", "0"}, "-servers"},
	} {
		args := append([]string{"-agents", "1", "-duration", "0.5"}, tc.args...)
		if _, err := run(args, &out); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run(%v) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

func TestParseIndexList(t *testing.T) {
	got, err := parseIndexList("3, 17")
	if err != nil || !reflect.DeepEqual(got, []int{3, 17}) {
		t.Fatalf("parseIndexList = %v, %v", got, err)
	}
	if got, err := parseIndexList(""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
}
