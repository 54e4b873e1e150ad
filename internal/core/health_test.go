package core

import (
	"testing"

	"dive/internal/imgx"
)

// testFrame builds a textured plane so rate control has something to bisect.
func testFrame(w, h int, seed int) *imgx.Plane {
	f := imgx.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Pix[y*w+x] = uint8((x*7 + y*13 + seed*31) % 251)
		}
	}
	return f
}

func TestLadderLevelTable(t *testing.T) {
	prevQP := -1
	for lvl := LadderHealthy; lvl <= LadderMOTOnly; lvl++ {
		d := lvl.Degradation()
		if d.Level != lvl {
			t.Errorf("%v: table entry carries level %v", lvl, d.Level)
		}
		if d.QPFloor < prevQP {
			t.Errorf("%v: QP floor %d below previous rung's %d — ladder must be monotone", lvl, d.QPFloor, prevQP)
		}
		prevQP = d.QPFloor
		if d.BudgetScale <= 0 || d.BudgetScale > 1 {
			t.Errorf("%v: budget scale %v out of (0,1]", lvl, d.BudgetScale)
		}
		if lvl.String() == "unknown" {
			t.Errorf("level %d unnamed", lvl)
		}
	}
	if LadderMOTOnly.Degradation().SkipModulo <= LadderFrameSkip.Degradation().SkipModulo {
		t.Error("mot-only must skip more aggressively than frame-skip")
	}
}

func TestLinkHealthStaysHealthyOnAcks(t *testing.T) {
	h := NewLinkHealth()
	for i := 0; i < 100; i++ {
		h.ObserveAck()
		if d := h.Tick(); d.Level != LadderHealthy {
			t.Fatalf("frame %d: degraded to %v on a clean link", i, d.Level)
		}
	}
	if h.Score() < 0.99 {
		t.Errorf("score %v after 100 clean acks", h.Score())
	}
}

func TestLinkHealthDescendsUnderFailures(t *testing.T) {
	h := NewLinkHealth()
	var deepest LadderLevel
	for i := 0; i < 60; i++ {
		h.ObserveTimeout()
		d := h.Tick()
		if d.Level > deepest {
			deepest = d.Level
		}
		if d.Level > deepest {
			t.Fatalf("ladder jumped more than one rung")
		}
	}
	if deepest != LadderMOTOnly {
		t.Fatalf("60 consecutive timeouts reached only %v", deepest)
	}
	if h.Level().Degradation().QPFloor == 0 {
		t.Error("deep rung imposes no QP floor")
	}
}

func TestLinkHealthOneRungPerDwell(t *testing.T) {
	h := NewLinkHealth()
	// Crash the score instantly, then count frames between rung moves.
	for i := 0; i < 50; i++ {
		h.ObserveTimeout()
	}
	last := h.Level()
	sinceMove := 0
	for i := 0; i < 40 && h.Level() < LadderMOTOnly; i++ {
		h.Tick()
		sinceMove++
		if h.Level() != last {
			if h.Level() != last+1 {
				t.Fatalf("ladder moved %v -> %v in one tick", last, h.Level())
			}
			last = h.Level()
			sinceMove = 0
		}
	}
	if last != LadderMOTOnly {
		t.Fatalf("ladder stalled at %v", last)
	}
}

func TestLinkHealthRecoversWithHysteresis(t *testing.T) {
	h := NewLinkHealth()
	for i := 0; i < 60; i++ {
		h.ObserveTimeout()
		h.Tick()
	}
	if h.Level() != LadderMOTOnly {
		t.Fatalf("setup: level %v", h.Level())
	}
	// Clean acks: the ladder must climb all the way back, one rung at a
	// time, within a bounded number of frames.
	frames := 0
	for h.Level() != LadderHealthy {
		h.ObserveAck()
		h.Tick()
		frames++
		if frames > 400 {
			t.Fatalf("ladder stuck at %v after %d clean frames (score %v)", h.Level(), frames, h.Score())
		}
	}
	if frames < healthDwellFrames*3 {
		t.Errorf("ladder recovered in %d frames — hysteresis/dwell not damping", frames)
	}
}

// TestLinkHealthNoOscillation feeds an alternating good/bad pattern whose
// mean sits near a threshold: the ladder must not flap every tick.
func TestLinkHealthNoOscillation(t *testing.T) {
	h := NewLinkHealth()
	transitions := 0
	last := h.Level()
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			h.Observe(1)
		} else {
			h.Observe(0.45)
		}
		h.Tick()
		if h.Level() != last {
			transitions++
			last = h.Level()
		}
	}
	if transitions > 8 {
		t.Errorf("%d ladder transitions over 400 frames of borderline input — oscillating", transitions)
	}
}

func TestObserveClamping(t *testing.T) {
	h := NewLinkHealth()
	h.Observe(42)
	if h.Score() > 1 {
		t.Errorf("score %v above 1", h.Score())
	}
	for i := 0; i < 100; i++ {
		h.Observe(-5)
	}
	if h.Score() < 0 {
		t.Errorf("score %v below 0", h.Score())
	}
	h.ObserveNack()
	h.ObserveReconnect()
	if s := h.Score(); s < 0 || s > 1 {
		t.Errorf("score %v out of range after mixed events", s)
	}
}

// TestAgentAppliesDegradation checks the encode path honours the QP floor
// and budget cut.
func TestAgentAppliesDegradation(t *testing.T) {
	cfg := DefaultAgentConfig(64, 64, 10, 100)
	cfg.Obs = nil
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrame(64, 64, 1)
	fr, err := agent.ProcessFrame(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := fr.Encoded.BaseQP

	d := LadderMOTOnly.Degradation()
	agent.SetDegradation(d, 0.1)
	fr2, err := agent.ProcessFrame(frame, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Encoded.BaseQP < d.QPFloor {
		t.Errorf("degraded frame QP %d below floor %d (baseline %d)", fr2.Encoded.BaseQP, d.QPFloor, baseline)
	}
	if agent.Degradation().Level != LadderMOTOnly {
		t.Errorf("Degradation() = %v", agent.Degradation().Level)
	}

	// Back to healthy: the floor lifts.
	agent.SetDegradation(LadderHealthy.Degradation(), 1)
	fr3, err := agent.ProcessFrame(frame, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if fr3.Encoded.BaseQP >= d.QPFloor && baseline < d.QPFloor {
		t.Errorf("QP %d still at degraded floor after recovery", fr3.Encoded.BaseQP)
	}
}
