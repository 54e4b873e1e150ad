package experiments

import (
	"math"
	"testing"
	"time"

	"dive/internal/codec"
	"dive/internal/imgx"
	"dive/internal/world"
)

// TestFig9Smoke sweeps the ME methods at smoke scale; it is the slowest
// experiment test (ESA/TESA are exhaustive searches). The table's time column
// is one wall-clock sample of a whole clip, taken while other packages' tests
// share the CPU, so the cost ordering is asserted on minAnalysisMs instead.
func TestFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive ME sweep skipped in -short")
	}
	rows, err := Fig9MotionEstimation(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 2 datasets × 5 methods
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MAP < 0 || r.MAP > 1 {
			t.Errorf("%+v: mAP out of range", r)
		}
		if r.TimeMs <= 0 {
			t.Errorf("%+v: no time measured", r)
		}
	}
	// Cost ordering: exhaustive searches must be slower than hexagon, on a
	// rendered frame and a copy shifted so that every macroblock moves.
	p := world.NuScenesLike()
	p.ClipDuration = 0.25
	f0 := world.GenerateClip(p, testSeed).Frames[0]
	f1 := imgx.NewPlane(f0.W, f0.H)
	imgx.CopyBlock(f1, 0, 0, f0, 3, 1, f0.W, f0.H)
	hex := minAnalysisMs(t, codec.MEHex, f0, f1)
	esa := minAnalysisMs(t, codec.MEEsa, f0, f1)
	tesa := minAnalysisMs(t, codec.METesa, f0, f1)
	t.Logf("least of seven analyses: hex %.2f ms, esa %.2f ms, tesa %.2f ms", hex, esa, tesa)
	if esa < hex {
		t.Errorf("esa (%v ms) faster than hex (%v ms)", esa, hex)
	}
	if tesa < esa*0.8 {
		t.Errorf("tesa (%v ms) should not be much faster than esa (%v ms)", tesa, esa)
	}
	RenderFig9(rows)
}

// minAnalysisMs is the least of seven timings of one motion analysis of f1
// against f0 with method m. A scheduler that stalls the test can only
// lengthen a run, so the minimum tracks the search's own work.
func minAnalysisMs(t *testing.T, m codec.MEMethod, f0, f1 *imgx.Plane) float64 {
	t.Helper()
	cfg := codec.DefaultConfig(f0.W, f0.H)
	cfg.Method = m
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(f0, codec.EncodeOptions{BaseQP: 20}); err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for i := 0; i < 7; i++ {
		f1.Bump() // a new generation: AnalyzeMotion searches again
		t0 := time.Now()
		enc.AnalyzeMotion(f1)
		best = math.Min(best, time.Since(t0).Seconds()*1000)
	}
	return best
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep skipped in -short")
	}
	rows, err := Fig11QPAssignment(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 2 datasets × 4 policies × 2 bandwidths (smoke)
		t.Fatalf("rows = %d", len(rows))
	}
	// mAP at 3 Mbps should be >= mAP at 1 Mbps for the adaptive policy.
	var lo, hi float64
	for _, r := range rows {
		if r.Dataset == "nuScenes" && r.Delta == "adaptive" {
			if r.Bandwidth == 1 {
				lo = r.MAP
			} else if r.Bandwidth == 3 {
				hi = r.MAP
			}
		}
	}
	if hi+0.05 < lo {
		t.Errorf("adaptive mAP fell with more bandwidth: %v @1Mbps vs %v @3Mbps", lo, hi)
	}
	RenderFig11(rows)
}

func TestFig16Fig17Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison skipped in -short")
	}
	rows16, err := Fig16EndToEndRobotCar(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	rows17, err := Fig17EndToEndNuScenes(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]EvalResult{rows16, rows17} {
		if len(rows) != 8 { // 2 bandwidths × 4 schemes at smoke scale
			t.Fatalf("rows = %d", len(rows))
		}
		seen := map[string]bool{}
		for _, r := range rows {
			seen[r.Scheme] = true
			if r.MAP < 0 || r.MAP > 1 || r.MeanRT <= 0 {
				t.Errorf("%+v implausible", r)
			}
		}
		for _, s := range []string{"DiVE", "O3", "EAAR", "DDS"} {
			if !seen[s] {
				t.Errorf("scheme %s missing", s)
			}
		}
		// Directional checks at 3 Mbps (the easier setting): DiVE's mAP
		// should top the field, and DDS should be the slowest.
		byScheme := map[string]EvalResult{}
		for _, r := range rows {
			if r.Bandwidth == 3 {
				byScheme[r.Scheme] = r
			}
		}
		dive := byScheme["DiVE"]
		for _, s := range []string{"O3", "EAAR"} {
			if byScheme[s].MAP > dive.MAP+0.02 {
				t.Errorf("%s mAP %v beats DiVE %v at 3 Mbps", s, byScheme[s].MAP, dive.MAP)
			}
		}
		if byScheme["DDS"].MeanRT < dive.MeanRT {
			t.Errorf("DDS RT %v below DiVE %v", byScheme["DDS"].MeanRT, dive.MeanRT)
		}
	}
	RenderEndToEnd("Fig 16", rows16)
	RenderEndToEnd("Fig 17", rows17)
}
