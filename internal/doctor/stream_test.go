package doctor

import (
	"math/rand"
	"reflect"
	"testing"

	"dive/internal/obs"
)

// randomJournal synthesizes a journal that exercises every detector:
// QP swings, bandwidth bias stretches, FG collapse runs, outages,
// reconnect bursts and degradation-ladder excursions.
func randomJournal(rng *rand.Rand, frames int) []obs.JournalRecord {
	recs := make([]obs.JournalRecord, frames)
	qp := 30
	degrade := 0
	for i := range recs {
		qp += rng.Intn(17) - 8
		if qp < 10 {
			qp = 10
		}
		if qp > 50 {
			qp = 50
		}
		rec := obs.JournalRecord{
			Frame:  i,
			BaseQP: qp,
			Moving: rng.Intn(4) != 0,
			RotOK:  rng.Intn(5) != 0,
		}
		if rng.Intn(3) == 0 {
			rec.FGReused = true
		} else {
			rec.FGMBs = rng.Intn(40)
		}
		if rng.Intn(6) == 0 {
			rec.Outage = true
			rec.TrackedBoxes = rng.Intn(5)
		}
		if rng.Intn(2) == 0 {
			rec.EstBWBps = 1e6 * (0.3 + 2.5*rng.Float64())
			rec.RealizedBWBps = 1e6 * (0.5 + rng.Float64())
		}
		if rng.Intn(8) == 0 {
			rec.ReconnectAttempts = 1 + rng.Intn(4)
			rec.BackoffSec = rng.Float64() * 0.1
		}
		if rng.Intn(10) == 0 {
			degrade = rng.Intn(4)
		} else if degrade > 0 && rng.Intn(3) == 0 {
			degrade--
		}
		rec.DegradeLevel = degrade
		recs[i] = rec
	}
	return recs
}

// TestStreamingMatchesBatch feeds randomized journals through Analyze
// (which drives the streaming detectors frame-by-frame) and through an
// all-at-once Observe loop split at arbitrary points, asserting the split
// position cannot change the diagnosis — the property that makes live
// following (divedoctor -follow) trustworthy.
func TestStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		journal := randomJournal(rng, 60+rng.Intn(120))
		want := Analyze(journal, 0)

		f := NewFollower(0)
		var got []Finding
		// Replay as a growing sequence of overlapping snapshots, as a live
		// poller would see the journal ring.
		pos := 0
		for pos < len(journal) {
			pos += 1 + rng.Intn(17)
			if pos > len(journal) {
				pos = len(journal)
			}
			got = append(got, f.Ingest(journal[:pos])...)
		}
		got = append(got, f.Close(journal)...)

		if f.Consumed() != len(journal) {
			t.Fatalf("trial %d: follower consumed %d of %d frames", trial, f.Consumed(), len(journal))
		}
		if len(got) != len(want.Findings) {
			t.Fatalf("trial %d: streaming found %d findings, batch %d\nstream: %+v\nbatch: %+v",
				trial, len(got), len(want.Findings), got, want.Findings)
		}
		// Batch order is stable-sorted by FirstFrame across detectors; the
		// stream interleaves by arrival. Compare as multisets.
		matched := make([]bool, len(want.Findings))
		for _, g := range got {
			found := false
			for j, w := range want.Findings {
				if !matched[j] && reflect.DeepEqual(g, w) {
					matched[j], found = true, true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: streaming finding not in batch report: %+v", trial, g)
			}
		}
	}
}

func TestFollowerSettleMargin(t *testing.T) {
	// An outage run inside the settle margin must not be diagnosed until
	// the journal grows past it (or Close is called): those records may
	// still be amended.
	var journal []obs.JournalRecord
	for f := 0; f < 20; f++ {
		journal = append(journal, obs.JournalRecord{Frame: f, Outage: f >= 10, TrackedBoxes: 2, BaseQP: 30})
	}
	f := NewFollower(0)
	if got := f.Ingest(journal); len(got) != 0 {
		t.Fatalf("settled ingest diagnosed held-back frames: %+v", got)
	}
	if f.Consumed() != 12 { // frames 0..11: newest(19) - settle(8)
		t.Fatalf("consumed %d frames, want 12", f.Consumed())
	}
	// Re-ingesting the same snapshot consumes nothing new.
	if f.Ingest(journal); f.Consumed() != 12 {
		t.Fatalf("re-ingest advanced the cursor to %d", f.Consumed())
	}
	got := f.Close(journal)
	if len(got) != 1 || got[0].Check != "outage-drift" {
		t.Fatalf("close findings = %+v, want one outage-drift", got)
	}
	if f.Consumed() != 20 {
		t.Fatalf("close consumed %d frames, want 20", f.Consumed())
	}
}
