package codec

import (
	"math"
	"math/rand"
	"testing"

	"dive/internal/imgx"
)

// TestSearchMatchesOracle holds the integer search — tighter early-exit
// bound, rate-only rejection, priced-point skipping, carried SAD — to the
// searcher it replaced: same vector and same cost for all five methods, over
// random predictors (so windows hang off every frame edge and the zero
// vector falls in and out of them), macroblocks on the border, content from
// clean translation to noise, and ranges on both sides of pricedRadius. The
// third result must be the winner's plain SAD.
func TestSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const w, h = 96, 64
	ref := randomFrame(w, h, rng)
	for trial := 0; trial < 400; trial++ {
		// A displaced copy of ref under a varying amount of noise.
		cur := shiftFrame(ref, rng.Intn(13)-6, rng.Intn(9)-4)
		addNoise(cur, rng, []int{0, 1, 6, 60, 255}[trial%5])
		mbx, mby := MBSize*rng.Intn(w/MBSize), MBSize*rng.Intn(h/MBSize)
		pred := MV{int16(rng.Intn(41) - 20), int16(rng.Intn(41) - 20)}
		for _, m := range AllMEMethods() {
			rangePx := []int{3, 8, 12, pricedRadius, pricedRadius + 1}[rng.Intn(5)]
			if (m == MEEsa || m == METesa) && rangePx > 12 {
				rangePx = 12 // exhaustive: keep the test quick
			}
			wantMV, wantCost := oracleSearchMB(cur, ref, mbx, mby, pred, m, rangePx)
			mv, cost, sad := searchInteger(cur, ref, mbx, mby, pred, m, rangePx)
			if mv != wantMV || cost != wantCost {
				t.Fatalf("trial %d %v MB (%d,%d) pred %v range %d: got %v cost %d, oracle %v cost %d",
					trial, m, mbx, mby, pred, rangePx, mv, cost, wantMV, wantCost)
			}
			if full := imgx.SAD(cur, mbx, mby, ref, mbx+int(mv.X), mby+int(mv.Y), MBSize, MBSize, math.MaxInt32); sad != full {
				t.Fatalf("trial %d %v MB (%d,%d) pred %v range %d: carried SAD %d, SAD at %v is %d",
					trial, m, mbx, mby, pred, rangePx, sad, mv, full)
			}
		}
	}
}
