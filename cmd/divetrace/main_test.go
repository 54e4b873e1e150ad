package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dive/internal/obs"
	"dive/internal/sim"
	"dive/internal/world"
)

// journal runs divetrace with args and decodes its journal output.
func journal(t *testing.T, args ...string) []obs.JournalRecord {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONL[obs.JournalRecord](strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("journal output does not round-trip: %v", err)
	}
	return recs
}

func TestRunFlagErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-profile", "bogus"}, &sb); err == nil {
		t.Error("expected error for unknown profile")
	}
	err := run([]string{"-format", "xml"}, &sb)
	if err == nil {
		t.Fatal("expected error for unknown format")
	}
	for _, want := range []string{"xml", "jsonl", "journal", "spans"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("format error %q does not mention %q", err, want)
		}
	}
	// Flags that would be ignored (serve-only ones without -serve, -mbps
	// with -chaos) or would crash or choke the run (a clip duration or link
	// rate out of range, a negative pace or linger) are rejected up front,
	// by name.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pace", "1ms"}, "-pace"},
		{[]string{"-linger", "1s"}, "-linger"},
		{[]string{"-serve", "127.0.0.1:0", "-pace", "-1ms"}, "-pace"},
		{[]string{"-serve", "127.0.0.1:0", "-linger", "-1s"}, "-linger"},
		{[]string{"-chaos", "outage-burst", "-mbps", "2"}, "-mbps"},
		{[]string{"-chaos", "bogus"}, "-chaos"},
		{[]string{"-mbps", "0"}, "-mbps"},
		{[]string{"-mbps", "-2", "-format", "jsonl"}, "-mbps"},
		{[]string{"-mbps", "NaN"}, "-mbps"},
		{[]string{"-mbps", "+Inf"}, "-mbps"},
		{[]string{"-duration", "-1"}, "-duration"},
		{[]string{"-duration", "0"}, "-duration"},
		{[]string{"-duration", "NaN"}, "-duration"},
		{[]string{"-duration", "3601"}, "-duration"},
	} {
		if err := run(tc.args, &sb); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
	if sb.Len() != 0 {
		t.Errorf("rejected invocations wrote %d bytes of output", sb.Len())
	}
}

func TestJournalFormatFeedsDoctorDecoder(t *testing.T) {
	recs := journal(t, "-seed", "3", "-duration", "0.5")
	if want := int(0.5 * world.NuScenesLike().FPS); len(recs) != want {
		t.Fatalf("journal has %d records, want %d", len(recs), want)
	}
	for i, r := range recs {
		if r.Frame != i || r.TraceID == 0 || r.EtaThreshold <= 0 {
			t.Errorf("record %d malformed: %+v", i, r)
		}
	}
	if recs[0].Type != "I" {
		t.Errorf("first frame is %q, want intra", recs[0].Type)
	}
}

func TestSpansFormatRoundTrips(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-seed", "3", "-duration", "0.5", "-format", "spans"}, &sb); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadJSONL[obs.SpanRecord](strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("spans output does not round-trip: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	for _, s := range spans {
		if s.TraceID == 0 || s.Name == "" || s.Site == "" {
			t.Errorf("span malformed: %+v", s)
		}
	}
}

// TestChaosJournalHasOutages: offline -chaos runs the head-of-queue outage
// timer, so a burst journals abandoned uploads, and the frame after each
// run of them is intra (the server decoder's reference went stale).
func TestChaosJournalHasOutages(t *testing.T) {
	recs := journal(t, "-chaos", "outage-burst", "-duration", "3")
	outages := 0
	for i, r := range recs {
		if !r.Outage {
			continue
		}
		outages++
		if i+1 < len(recs) && !recs[i+1].Outage && recs[i+1].Type != "I" {
			t.Errorf("frame %d after an outage run is %q, want intra", i+1, recs[i+1].Type)
		}
	}
	if outages == 0 {
		t.Fatalf("no outage records in %d frames", len(recs))
	}
	t.Logf("%d outage frames of %d", outages, len(recs))
}

// TestConstantLinkQueues: on a constant link a frame starts serializing once
// it is encoded and the frames ahead of it have drained, never at capture.
func TestConstantLinkQueues(t *testing.T) {
	encode := sim.DefaultLatencies().Encode
	queued := 0
	for _, r := range journal(t, "-mbps", "1", "-duration", "2", "-format", "journal") {
		if r.AckBits == 0 {
			continue
		}
		ready := r.TimeSec + encode
		if r.AckStartSec < ready-1e-9 {
			t.Errorf("frame %d starts sending at %.4f s, before it is encoded at %.4f s", r.Frame, r.AckStartSec, ready)
		}
		if r.AckStartSec > ready+1e-9 {
			queued++
		}
	}
	if queued == 0 {
		t.Error("no frame queued behind another on a 1 Mbps link")
	}
}

// TestJournalIsDeterministic: two runs with the same flags, one to stdout
// and one through -o, write the same bytes.
func TestJournalIsDeterministic(t *testing.T) {
	var a, b strings.Builder
	path := filepath.Join(t.TempDir(), "run.journal.jsonl")
	args := []string{"-chaos", "outage-burst", "-duration", "1"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-o", path), &b); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || string(file) != a.String() {
		t.Error("two runs with the same flags wrote different journals")
	}
}
