package doctor

import (
	"testing"

	"dive/internal/obs"
)

// The cluster detectors grade session migrations from the journal: every
// migration must surface with its measured re-detection gap, graded against
// the budget, and repeated migrations within a short window must be called
// out as a failover storm.

func migratedAt(js []obs.JournalRecord, frame int, gapSec float64, forced bool) {
	js[frame].Migrated = true
	js[frame].MigrationGapSec = gapSec
	js[frame].MigratedTo = "127.0.0.1:9999"
	js[frame].MigrationForced = forced
}

func TestMigrationGapWithinBudgetWarns(t *testing.T) {
	js := flatJournal(60)
	migratedAt(js, 30, 0.8, true)
	rep := Analyze(js, 0)
	found := false
	for _, f := range rep.Findings {
		if f.Check != "migration-gap" {
			continue
		}
		found = true
		if f.Severity != Warn {
			t.Errorf("bounded gap graded %v, want warn", f.Severity)
		}
		if f.Value != 0.8 || f.Threshold != 2.0 {
			t.Errorf("finding carries value %.2f / threshold %.2f, want 0.8 / 2.0", f.Value, f.Threshold)
		}
		if f.FirstFrame != 30 || f.LastFrame != 30 {
			t.Errorf("finding anchored to %d–%d, want 30–30", f.FirstFrame, f.LastFrame)
		}
	}
	if !found {
		t.Fatalf("migration not surfaced; findings: %+v", rep.Findings)
	}
	if hasCheck(rep, "failover-storm") {
		t.Fatalf("single migration flagged as a storm: %+v", rep.Findings)
	}
}

func TestMigrationGapOverBudgetFails(t *testing.T) {
	js := flatJournal(60)
	migratedAt(js, 30, 3.5, true)
	rep := Analyze(js, 0)
	for _, f := range rep.Findings {
		if f.Check == "migration-gap" {
			if f.Severity != Fail {
				t.Errorf("over-budget gap graded %v, want fail", f.Severity)
			}
			return
		}
	}
	t.Fatalf("over-budget migration not flagged; findings: %+v", rep.Findings)
}

func TestMigrationGapCleanJournalSilent(t *testing.T) {
	rep := Analyze(flatJournal(60), 0)
	if hasCheck(rep, "migration-gap") || hasCheck(rep, "failover-storm") {
		t.Fatalf("clean journal produced cluster findings: %+v", rep.Findings)
	}
}

func TestFailoverStormDetected(t *testing.T) {
	js := flatJournal(200)
	// Three migrations within 40 frames: the session is ping-ponging.
	for _, fr := range []int{50, 70, 90} {
		migratedAt(js, fr, 0.5, true)
	}
	rep := Analyze(js, 0)
	found := false
	for _, f := range rep.Findings {
		if f.Check != "failover-storm" {
			continue
		}
		found = true
		if f.Severity != Fail {
			t.Errorf("storm graded %v, want fail", f.Severity)
		}
		if f.FirstFrame != 50 || f.LastFrame != 90 {
			t.Errorf("storm anchored to %d–%d, want 50–90", f.FirstFrame, f.LastFrame)
		}
	}
	if !found {
		t.Fatalf("storm not flagged; findings: %+v", rep.Findings)
	}
}

func TestFailoverStormWideSpacingClean(t *testing.T) {
	js := flatJournal(800)
	// Three migrations but each pair further apart than the window.
	for _, fr := range []int{50, 300, 600} {
		migratedAt(js, fr, 0.5, false)
	}
	rep := Analyze(js, 0)
	if hasCheck(rep, "failover-storm") {
		t.Fatalf("well-spaced migrations flagged as a storm: %+v", rep.Findings)
	}
}

func TestFailoverStormReportsOncePerBurst(t *testing.T) {
	js := flatJournal(200)
	for _, fr := range []int{50, 60, 70, 80, 90} {
		migratedAt(js, fr, 0.5, true)
	}
	rep := Analyze(js, 0)
	storms := 0
	for _, f := range rep.Findings {
		if f.Check == "failover-storm" {
			storms++
		}
	}
	if storms != 1 {
		t.Fatalf("burst of 5 migrations reported %d storms, want 1: %+v", storms, rep.Findings)
	}
}
