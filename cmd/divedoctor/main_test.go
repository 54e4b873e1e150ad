package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dive/internal/doctor"
	"dive/internal/fleet"
	"dive/internal/obs"
)

func writeJournal(t *testing.T, recs []obs.JournalRecord) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func oscillatingJournal() []obs.JournalRecord {
	var out []obs.JournalRecord
	for i, qp := range []int{24, 34, 22, 35, 23, 33, 21, 34} {
		out = append(out, obs.JournalRecord{Frame: i, BaseQP: qp, Type: "P"})
	}
	return out
}

func TestRunDiagnosesJournalFile(t *testing.T) {
	path := writeJournal(t, oscillatingJournal())
	var out bytes.Buffer
	rep, err := run([]string{"-journal", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatalf("oscillating journal diagnosed healthy: %s", out.String())
	}
	if !strings.Contains(out.String(), "qp-oscillation") {
		t.Errorf("report does not name the check:\n%s", out.String())
	}
}

func TestRunJSONReportIsMachineReadable(t *testing.T) {
	path := writeJournal(t, oscillatingJournal())
	var out bytes.Buffer
	rep, err := run([]string{"-journal", path, "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var decoded doctor.Report
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(decoded.Findings) != len(rep.Findings) {
		t.Errorf("decoded %d findings, ran %d", len(decoded.Findings), len(rep.Findings))
	}
	if decoded.Findings[0].Check != "qp-oscillation" {
		t.Errorf("finding check %q", decoded.Findings[0].Check)
	}
}

// TestRunFetchesLiveEndpoints diagnoses a recorder's real telemetry surface
// twice, by batch -url and by -follow, and checks the follower against
// -journal on the same journal exported to a file.
func TestRunFetchesLiveEndpoints(t *testing.T) {
	rec := obs.NewRecorder(16)
	for _, r := range oscillatingJournal() {
		rec.RecordJournal(r)
	}
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()
	var out bytes.Buffer
	rep, err := run([]string{"-url", srv.URL}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatalf("live oscillating journal diagnosed healthy: %s", out.String())
	}

	var file bytes.Buffer
	if err := rec.Journal().WriteJSONL(&file); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal.jsonl")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := run([]string{"-journal", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run([]string{"-follow", "-url", srv.URL, "-interval", "20ms", "-for", "300ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Frames != want.Frames {
		t.Errorf("-follow consumed %d frames, -journal %d", got.Frames, want.Frames)
	}
	// The recorder serves /debug/runtime: the follower runs the journal
	// checks plus gc-pressure.
	if wantChecks := append(append([]string(nil), want.Checks...), "gc-pressure"); !reflect.DeepEqual(got.Checks, wantChecks) {
		t.Errorf("-follow checks_run %v, want %v", got.Checks, wantChecks)
	}
	// The gc-pressure suite grades this process's own runtime samples,
	// which -journal has no counterpart of; every other finding must match
	// as a multiset (the stream orders by arrival, the batch by frame).
	var journalFindings []doctor.Finding
	for _, f := range got.Findings {
		if !strings.HasPrefix(f.Check, "gc-") {
			journalFindings = append(journalFindings, f)
		}
	}
	if !sameMultiset(journalFindings, want.Findings) {
		t.Errorf("-follow findings %+v, -journal findings %+v", journalFindings, want.Findings)
	}
}

// sameMultiset reports whether a and b hold the same findings, in any order.
func sameMultiset(a, b []doctor.Finding) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[doctor.Finding]int{}
	for _, f := range a {
		count[f]++
	}
	for _, f := range b {
		if count[f]--; count[f] < 0 {
			return false
		}
	}
	return true
}

func TestRunRejectsEmptyInvocation(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(nil, &out); err == nil {
		t.Fatal("no-input invocation did not error")
	}
}

// TestRunRejectsRemovedFlags: GC pressure is diagnosed by -follow alone,
// and allocations by the packages' AllocsPerRun tests: there is no
// runtime-stats or bench-output file input.
func TestRunRejectsRemovedFlags(t *testing.T) {
	for _, name := range []string{"-runtime", "-alloc"} {
		_, err := run([]string{name, "x"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: error %v, want flag provided but not defined", name, err)
		}
	}
}

// TestRunRejectsBadWatchFlags: a watch flag without -follow, an interval
// that would poll without sleeping and a negative bound fail by name before
// anything is read.
func TestRunRejectsBadWatchFlags(t *testing.T) {
	path := writeJournal(t, oscillatingJournal())
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-journal", path, "-interval", "1s"}, "-interval"},
		{[]string{"-journal", path, "-for", "1s"}, "-for"},
		{[]string{"-follow", "-url", "http://127.0.0.1:1", "-interval", "0"}, "-interval"},
		{[]string{"-follow", "-url", "http://127.0.0.1:1", "-interval", "-1s"}, "-interval"},
		{[]string{"-follow", "-url", "http://127.0.0.1:1", "-for", "-1s"}, "-for"},
	} {
		var out bytes.Buffer
		if _, err := run(tc.args, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %s", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote %q", tc.args, out.String())
		}
	}
}

// fleetReport renders a divefleet -json report of n rollups, straggling from
// tick `from`.
func fleetReport(t *testing.T, n, from int) []byte {
	t.Helper()
	rep := fleet.Report{Spec: fleet.Spec{Agents: 10, Servers: 2}}
	for i := 0; i < n; i++ {
		ru := obs.FleetRollup{Tick: i, Sessions: 10, FramesTotal: int64(100 * (i + 1))}
		if i >= from {
			ru.Stragglers = []obs.Straggler{{
				Session: "nuScenes-003", Profile: "nuScenes", Factor: 9,
				LatencyP99Sec: 0.6, BurnRate: 40, Reason: "latency",
			}}
		}
		rep.Rollups = append(rep.Rollups, ru)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunFleetFile drives -fleet offline over a divefleet -json report with
// a sustained straggler; a report without rollups is an error naming the
// file.
func TestRunFleetFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	os.WriteFile(path, fleetReport(t, 8, 2), 0o644)
	var out bytes.Buffer
	rep, err := run([]string{"-fleet", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() || !strings.Contains(out.String(), "straggler-session") {
		t.Fatalf("sustained straggler diagnosed healthy:\n%s", out.String())
	}
	if rep.Frames != 8 {
		t.Errorf("report frames = %d, want the 8 rollups diagnosed", rep.Frames)
	}
	os.WriteFile(path, fleetReport(t, 0, 0), 0o644)
	if _, err := run([]string{"-fleet", path}, &out); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("empty report: err = %v, want an error naming %s", err, path)
	}
}

// TestFollowRetriesTransientScrapeFailures: the watch must survive a burst
// of failed scrapes mid-stream (a chaos blackout between doctor and target)
// and keep consuming the journal once the endpoint recovers, instead of
// aborting at the first error.
func TestFollowRetriesTransientScrapeFailures(t *testing.T) {
	journal := oscillatingJournal()
	var mu sync.Mutex
	polls := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/journal", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		polls++
		n := polls
		mu.Unlock()
		if n >= 3 && n <= 5 {
			// Transient outage: three consecutive scrapes fail.
			http.Error(w, "blackout", http.StatusBadGateway)
			return
		}
		recs := journal
		if n < 3 {
			recs = journal[:4] // only a prefix exists before the blip
		}
		for _, rec := range recs {
			data, _ := json.Marshal(rec)
			w.Write(append(data, '\n'))
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var out bytes.Buffer
	rep, err := run([]string{"-follow", "-url", srv.URL, "-interval", "30ms", "-for", "3s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != len(journal) {
		t.Fatalf("watch consumed %d frames, want all %d (did the blip abort it?)", rep.Frames, len(journal))
	}
	if !strings.Contains(out.String(), "qp-oscillation") {
		t.Errorf("post-recovery pathology not diagnosed:\n%s", out.String())
	}
}
