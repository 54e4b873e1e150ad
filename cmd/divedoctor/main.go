// Command divedoctor is the automated trace analyzer: it ingests the
// decision journal a DiVE run exported (an offline JSONL file or the live
// /debug/journal endpoint) and prints a diagnosis report — QP oscillation, systematic bandwidth mis-estimation,
// foreground-segmentation collapse during turns, stale-MOT drift across
// outages, reconnect storms with collapsed backoff and slow post-outage
// recovery of the degradation ladder.
//
// Usage:
//
//	divedoctor [-journal run.journal.jsonl] [-url http://localhost:7061]
//	           [-fleet fleet.json] [-json]
//	divedoctor -follow -url http://localhost:7061 [-interval 500ms]
//	           [-for 15s] [-outage-run 6]
//
// Input modes (combinable; a detector suite is listed under checks_run and
// run only when its input was supplied):
//
//   - -journal reads an exported journal JSONL file ("-" reads stdin).
//   - -url fetches the journal live from a telemetry endpoint.
//   - -fleet reads the rollup series of a divefleet -json report and runs
//     the fleet detectors: straggler-session (sustained straggler-table
//     residency) and fleet-burn (aggregate SLO burn with no straggler
//     standing out — diffuse overload).
//
// Watch mode: -follow tails -url's /debug/journal while the run is still
// going, feeding new records through the streaming detectors and printing
// each finding as one JSON line the moment it becomes final. Each poll also
// samples /debug/runtime when the endpoint serves it; the snapshots feed the
// final GC-pressure diagnosis (sustained live-heap growth, GC pause p99 over
// the ceiling). A fleet is diagnosed offline, by -fleet on its divefleet
// -json report. Transient scrape failures are retried with capped
// exponential backoff (a chaos blackout between doctor and target must not
// abort the watch) and counted in the exit summary; the watch only ends once
// the endpoint stays unreachable for several consecutive polls. The newest 8
// journal frames are held back so late amendments (acks, outage verdicts)
// land before analysis. -interval is the poll period and must be positive;
// -for bounds the watch (0 follows until the endpoint disappears or the
// process is interrupted) and must not be negative. Both are rejected
// without -follow.
// The stream ends with a final flush over the tail and a summary on stderr;
// stdout carries only finding JSONL.
//
// Exit status: 0 when the run diagnoses clean, 1 when any finding fired
// (machine-gateable), 2 on usage or I/O errors. -json prints the full
// report as JSON for CI to parse.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"dive/internal/doctor"
	"dive/internal/obs"
)

func main() {
	rep, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divedoctor:", err)
		os.Exit(2)
	}
	if rep != nil && !rep.Healthy() {
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (*doctor.Report, error) {
	fs := flag.NewFlagSet("divedoctor", flag.ContinueOnError)
	journalPath := fs.String("journal", "", "decision-journal JSONL file (- = stdin)")
	url := fs.String("url", "", "live telemetry base URL, e.g. http://localhost:7061; fetches /debug/journal")
	asJSON := fs.Bool("json", false, "print the report as JSON")
	follow := fs.Bool("follow", false, "watch mode: tail -url's /debug/journal and stream findings as JSONL")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll period in -follow mode")
	followFor := fs.Duration("for", 0, "stop following after this long (0 = until the endpoint disappears)")
	outageRun := fs.Int("outage-run", 0, "override the outage-drift run-length threshold (0 = default; scenarios with short outage windows need a lower bar)")
	fleetPath := fs.String("fleet", "", "divefleet -json report for the fleet detectors (- = stdin)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// Watch flags without -follow would be ignored, and an interval of zero
	// or less would poll without sleeping: each fails by name.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"interval", "for"} {
		if set[name] && !*follow {
			return nil, fmt.Errorf("-%s only applies with -follow", name)
		}
	}
	switch {
	case *interval <= 0:
		return nil, fmt.Errorf("-interval must be positive, got %v", *interval)
	case *followFor < 0:
		return nil, fmt.Errorf("-for must not be negative, got %v", *followFor)
	case *follow && *url == "":
		fs.Usage()
		return nil, fmt.Errorf("-follow needs -url")
	case *follow:
		return followLive(*url, *interval, *followFor, *outageRun, w)
	case *journalPath == "" && *url == "" && *fleetPath == "":
		fs.Usage()
		return nil, fmt.Errorf("nothing to analyze: pass -journal, -url or -fleet")
	}

	// Each suite below is listed and run only when its input was supplied.
	rep := &doctor.Report{}
	if *journalPath != "" || *url != "" {
		var journal []obs.JournalRecord
		if *journalPath != "" {
			recs, err := readFile("journal", *journalPath, obs.ReadJSONL[obs.JournalRecord])
			if err != nil {
				return nil, err
			}
			journal = recs
		}
		if *url != "" {
			recs, err := fetchAs(&http.Client{Timeout: 10 * time.Second}, *url+"/debug/journal", obs.ReadJSONL[obs.JournalRecord])
			if err != nil {
				return nil, err
			}
			journal = append(journal, recs...)
		}
		rep = doctor.Analyze(journal, *outageRun)
	}

	if *fleetPath != "" {
		rollups, err := readFile("fleet rollups", *fleetPath, readRollups)
		if err != nil {
			return nil, err
		}
		frep := doctor.AnalyzeFleet(rollups)
		if *journalPath == "" && *url == "" {
			rep.Frames = frep.Frames
		}
		rep.Checks = append(rep.Checks, frep.Checks...)
		rep.Findings = append(rep.Findings, frep.Findings...)
	}

	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	printReport(w, rep)
	return rep, nil
}

func printReport(w io.Writer, rep *doctor.Report) {
	fmt.Fprintf(w, "divedoctor: %d records, checks: %v\n", rep.Frames, rep.Checks)
	if rep.Healthy() {
		fmt.Fprintln(w, "diagnosis: healthy — no findings")
		return
	}
	fmt.Fprintf(w, "diagnosis: %d finding(s)\n", len(rep.Findings))
	for _, f := range rep.Findings {
		loc := ""
		if f.LastFrame > 0 || f.FirstFrame > 0 {
			loc = fmt.Sprintf(" [frames %d–%d]", f.FirstFrame, f.LastFrame)
		}
		fmt.Fprintf(w, "  %-4s %-20s%s %s\n", f.Severity, f.Check, loc, f.Message)
	}
}

// readFile opens path ("-" = stdin) and parses it; a parse error names what
// was being read and from where.
func readFile[T any](what, path string, parse func(io.Reader) (T, error)) (T, error) {
	var zero T
	r := io.NopCloser(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return zero, err
		}
		r = f
	}
	defer r.Close()
	v, err := parse(r)
	if err != nil {
		return zero, fmt.Errorf("parse %s %s: %w", what, path, err)
	}
	return v, nil
}

// followMaxConsecFails is how many consecutive failed scrapes of a
// previously healthy endpoint end the watch: a run shutting down stops
// answering for good, while chaos-induced blips (a proxy blackout, a
// saturated accept queue) recover within a few polls and must not abort the
// watch mid-stream.
const followMaxConsecFails = 6

// followLive tails a live /debug/journal, streaming each finding to w as
// one JSON line the moment the incremental detectors finalize it, and
// samples /debug/runtime alongside. Transient scrape failures are retried
// with capped exponential backoff and counted; the loop ends when the
// deadline passes or the endpoint stays unreachable for followMaxConsecFails
// polls. Either way the held-back tail is flushed through the detectors so
// end-of-stream findings are not lost.
func followLive(base string, interval, dur time.Duration, outageRun int, w io.Writer) (*doctor.Report, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	follower := doctor.NewFollower(outageRun)
	enc := json.NewEncoder(w)
	var findings []doctor.Finding
	emit := func(fs []doctor.Finding) error {
		for _, f := range fs {
			if err := enc.Encode(f); err != nil {
				return err
			}
		}
		findings = append(findings, fs...)
		return nil
	}

	var deadline time.Time
	if dur > 0 {
		deadline = time.Now().Add(dur)
	}
	var last []obs.JournalRecord
	var rtSamples []obs.RuntimeStats
	connected, failures, retries := false, 0, 0
	sleep := interval
	for {
		recs, err := fetchAs(client, base+"/debug/journal", obs.ReadJSONL[obs.JournalRecord])
		switch {
		case err == nil:
			connected, failures, sleep = true, 0, interval
			last = recs
			if err := emit(follower.Ingest(recs)); err != nil {
				return nil, err
			}
			// Sample the runtime alongside the journal; servers without
			// /debug/runtime just skip the GC-pressure series.
			if st, err := fetchAs(client, base+"/debug/runtime", obs.ReadJSONL[obs.RuntimeStats]); err == nil {
				rtSamples = append(rtSamples, st...)
			}
		case errors.Is(err, errNotFound):
			// The debug mux is static: a 404 is a permanent answer.
			return nil, fmt.Errorf("follow %s: %w", base, err)
		case connected:
			// The endpoint answered before and stopped. A shut-down run
			// stays down; a chaos blip recovers — retry with capped backoff
			// before declaring the stream over.
			failures++
			retries++
			if failures >= followMaxConsecFails {
				goto done
			}
			sleep *= 2
			if max := 4 * time.Second; sleep > max {
				sleep = max
			}
		default:
			// Never connected; give a just-starting server a grace window.
			failures++
			if failures >= 10 {
				return nil, fmt.Errorf("follow %s: %w", base, err)
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		time.Sleep(sleep)
	}
done:
	if err := emit(follower.Close(last)); err != nil {
		return nil, err
	}
	checks := follower.Checks()
	if len(rtSamples) > 0 {
		checks = append(checks, "gc-pressure")
		if err := emit(doctor.AnalyzeRuntime(rtSamples)); err != nil {
			return nil, err
		}
	}
	rep := &doctor.Report{Frames: follower.Consumed(), Checks: checks, Findings: findings}
	fmt.Fprintf(os.Stderr, "divedoctor: followed %d journal frames, %d finding(s), %d scrape retries\n",
		rep.Frames, len(rep.Findings), retries)
	return rep, nil
}

// errNotFound marks a 404: the server is alive but does not serve that
// endpoint, which is a permanent answer (the debug mux is static), unlike a
// connection error.
var errNotFound = errors.New("endpoint not found")

// fetchAs GETs url and parses the body; a parse error names the endpoint.
func fetchAs[T any](client *http.Client, url string, parse func(io.Reader) (T, error)) (T, error) {
	var zero T
	resp, err := client.Get(url)
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return zero, fmt.Errorf("GET %s: %w", url, errNotFound)
	case resp.StatusCode != http.StatusOK:
		return zero, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	v, err := parse(resp.Body)
	if err != nil {
		return zero, fmt.Errorf("parse %s: %w", url, err)
	}
	return v, nil
}

// readRollups returns a divefleet -json report's rollups; none is an error.
func readRollups(r io.Reader) ([]obs.FleetRollup, error) {
	var report struct {
		Rollups []obs.FleetRollup `json:"rollups"`
	}
	err := json.NewDecoder(r).Decode(&report)
	if err == nil && len(report.Rollups) == 0 {
		err = errors.New("no rollups in the report")
	}
	return report.Rollups, err
}
