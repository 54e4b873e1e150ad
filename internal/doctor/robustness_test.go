package doctor

import (
	"testing"

	"dive/internal/obs"
)

// The robustness detectors grade the client's failure handling from the
// journal alone, so they are tested on seeded pathological journals: a
// reconnect loop whose backoff collapsed, and a degradation ladder that
// stays down long after the link healed.

// flatJournal builds n healthy records with consecutive frame numbers.
func flatJournal(n int) []obs.JournalRecord {
	js := make([]obs.JournalRecord, n)
	for i := range js {
		js[i] = obs.JournalRecord{Frame: i, BaseQP: 30}
	}
	return js
}

func TestReconnectStormBackoffCollapseFails(t *testing.T) {
	js := flatJournal(40)
	// Frames 10–15: two attempts each with ~1ms of backoff per attempt —
	// the retry loop is spinning, not backing off.
	for i := 10; i <= 15; i++ {
		js[i].ReconnectAttempts = 2
		js[i].BackoffSec = 0.002
	}
	rep := Analyze(js, 0)
	if !hasCheck(rep, "reconnect-storm") {
		t.Fatalf("storm not flagged; findings: %+v", rep.Findings)
	}
	for _, f := range rep.Findings {
		if f.Check != "reconnect-storm" {
			continue
		}
		if f.Severity != Fail {
			t.Errorf("collapsed backoff graded %v, want fail", f.Severity)
		}
		if f.FirstFrame != 10 || f.LastFrame != 15 {
			t.Errorf("storm anchored to %d–%d, want 10–15", f.FirstFrame, f.LastFrame)
		}
	}
}

func TestReconnectStormHealthyBackoffWarns(t *testing.T) {
	js := flatJournal(40)
	// Same attempt count, but each attempt waited ~200ms: a long blackout
	// being retried responsibly. Still worth surfacing, but only as a warn.
	for i := 10; i <= 15; i++ {
		js[i].ReconnectAttempts = 2
		js[i].BackoffSec = 0.4
	}
	rep := Analyze(js, 0)
	found := false
	for _, f := range rep.Findings {
		if f.Check == "reconnect-storm" {
			found = true
			if f.Severity != Warn {
				t.Errorf("damped storm graded %v, want warn", f.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("storm not flagged; findings: %+v", rep.Findings)
	}
}

func TestReconnectStormBelowThresholdClean(t *testing.T) {
	js := flatJournal(40)
	// A couple of isolated reconnects with real backoff is normal operation.
	js[8].ReconnectAttempts = 1
	js[8].BackoffSec = 0.2
	js[30].ReconnectAttempts = 2
	js[30].BackoffSec = 0.5
	rep := Analyze(js, 0)
	if hasCheck(rep, "reconnect-storm") {
		t.Fatalf("sparse reconnects flagged as a storm: %+v", rep.Findings)
	}
}

func TestSlowRecoveryStuckLadderDetected(t *testing.T) {
	js := flatJournal(80)
	// Outage burst ends at frame 10; the ladder never climbs back.
	for i := 5; i <= 10; i++ {
		js[i].Outage = true
		js[i].DegradeLevel = 3
	}
	for i := 11; i < 80; i++ {
		js[i].DegradeLevel = 2
	}
	rep := Analyze(js, 0)
	found := 0
	for _, f := range rep.Findings {
		if f.Check == "slow-recovery" {
			found++
			if f.FirstFrame != 10 {
				t.Errorf("recovery window anchored at %d, want 10", f.FirstFrame)
			}
		}
	}
	if found == 0 {
		t.Fatalf("stuck ladder not flagged; findings: %+v", rep.Findings)
	}
	if found > 1 {
		t.Errorf("stuck ladder reported %d times, want once", found)
	}
}

func TestSlowRecoveryLateReturnDetected(t *testing.T) {
	js := flatJournal(80)
	js[10].Outage = true
	js[10].DegradeLevel = 2
	// Degraded until frame 50: a 40-frame tail against a 24-frame limit.
	for i := 11; i < 50; i++ {
		js[i].DegradeLevel = 1
	}
	rep := Analyze(js, 0)
	if !hasCheck(rep, "slow-recovery") {
		t.Fatalf("late recovery not flagged; findings: %+v", rep.Findings)
	}
}

func TestSlowRecoveryPromptReturnClean(t *testing.T) {
	js := flatJournal(80)
	js[10].Outage = true
	js[10].DegradeLevel = 2
	// Back to healthy within the allowance.
	for i := 11; i < 20; i++ {
		js[i].DegradeLevel = 1
	}
	rep := Analyze(js, 0)
	if hasCheck(rep, "slow-recovery") {
		t.Fatalf("prompt recovery flagged: %+v", rep.Findings)
	}
}

func TestSlowRecoveryResetByNewFailure(t *testing.T) {
	js := flatJournal(120)
	// A sustained blackout: every frame in 10–60 is a failure event. The
	// recovery clock must run from the episode's END, so a degraded tail of
	// 15 frames after frame 60 is within the 24-frame allowance even though
	// the total degraded stretch is far longer.
	for i := 10; i <= 60; i++ {
		js[i].Outage = true
		js[i].DegradeLevel = 4
	}
	for i := 61; i < 75; i++ {
		js[i].DegradeLevel = 1
	}
	rep := Analyze(js, 0)
	if hasCheck(rep, "slow-recovery") {
		t.Fatalf("recovery clock did not reset on new failure events: %+v", rep.Findings)
	}
}
