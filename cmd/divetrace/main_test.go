package main

import (
	"strings"
	"testing"

	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

func TestTraceCSVOutput(t *testing.T) {
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	var sb strings.Builder
	if err := Trace(p, 3, netsim.Mbps(2), "csv", &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	wantRows := int(0.5*p.FPS) + 1 // header + frames
	if len(lines) != wantRows {
		t.Fatalf("lines = %d, want %d", len(lines), wantRows)
	}
	header := strings.Split(lines[0], ",")
	for _, row := range lines[1:] {
		if got := len(strings.Split(row, ",")); got != len(header) {
			t.Fatalf("row has %d fields, header has %d: %q", got, len(header), row)
		}
	}
	if !strings.Contains(lines[0], "eta") || !strings.Contains(lines[0], "psnr_db") {
		t.Errorf("header missing expected columns: %s", lines[0])
	}
	// First frame is intra.
	if !strings.Contains(lines[1], ",I,") {
		t.Errorf("first frame row should be intra: %s", lines[1])
	}
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
	for _, want := range []string{"xml", "csv", "jsonl", "journal", "spans"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("format error %q does not mention %q", err, want)
		}
	}
	// Flags that would be ignored (serve-only ones without -serve) or choke
	// the run at its end (a non-positive link rate) are rejected up front,
	// by name.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-chaos", "outage-burst", "-format", "journal"}, "-chaos"},
		{[]string{"-pace", "1ms"}, "-pace"},
		{[]string{"-linger", "1s"}, "-linger"},
		{[]string{"-mbps", "0"}, "-mbps"},
		{[]string{"-mbps", "-2", "-format", "jsonl"}, "-mbps"},
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
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	var sb strings.Builder
	if err := Trace(p, 3, netsim.Mbps(2), "journal", &sb); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONL[obs.JournalRecord](strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("journal output does not round-trip: %v", err)
	}
	if len(recs) != int(0.5*p.FPS) {
		t.Fatalf("journal has %d records, want %d", len(recs), int(0.5*p.FPS))
	}
	for i, r := range recs {
		if r.Frame != i || r.TraceID == 0 || r.EtaThreshold <= 0 {
			t.Errorf("record %d malformed: %+v", i, r)
		}
	}
}

func TestSpansFormatRoundTrips(t *testing.T) {
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	var sb strings.Builder
	if err := Trace(p, 3, netsim.Mbps(2), "spans", &sb); err != nil {
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
