package codec

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// Property tests for the block quantizer and the counting rate-control
// trial: each new kernel is held to the code it replaced (oracle_test.go).

// countPass returns the exact number of bits a final encode of frame at
// baseQP would write: quantizePass as a trial that never stops early.
func (e *Encoder) countPass(frame *imgx.Plane, ftype FrameType, mf *MotionField, dctCache [][blockSize * blockSize]int32, baseQP int, offsets []int) int {
	return e.quantizePass(frame, ftype, mf, dctCache, baseQP, offsets, nil, math.MaxInt)
}

// checkCountBlock holds codeBlock — the dispatched quantizer priced through
// the zigzag table and blockBits — and the quantizer's Go body to the
// quantize-then-count oracle on one coefficient block at every QP: the same
// levels, significance mask and length as quantizeBlockFixed and the
// symbol-by-symbol counter, and the same length as the old countBlock and
// coeffsBits.
func checkCountBlock(t *testing.T, name string, coef *[blockSize * blockSize]int32) {
	t.Helper()
	var want, got, goLevels [blockSize * blockSize]int32
	for qp := 0; qp < 52; qp++ {
		wantNZ := quantizeBlockFixed(coef, qp, &want)
		wantBits := oracleCoeffsBits(&want, wantNZ)
		wantMask := levelsMask(&want)
		mask, n := codeBlock(coef, qp, &got)
		if got != want || mask != wantMask || bits.OnesCount64(mask) != wantNZ || n != wantBits {
			t.Fatalf("%s qp %d: codeBlock = mask %#x, %d bits (levels equal: %v); oracle mask %#x (%d nonzero), %d bits", name, qp, mask, n, got == want, wantMask, wantNZ, wantBits)
		}
		if c, f := countBlock(coef, qp), coeffsBits(&want, wantNZ); c != wantBits || f != wantBits {
			t.Fatalf("%s qp %d: old countBlock = %d, coeffsBits = %d, quantize-then-count oracle = %d", name, qp, c, f, wantBits)
		}
		sig, lenSum := quantizeBlockGo(coef, qp, &goLevels)
		if goLevels != want || blockBits(zigzagMask(sig), lenSum) != wantBits {
			t.Fatalf("%s qp %d: quantizeBlockGo disagrees with the oracle", name, qp)
		}
	}
}

func TestCountBlockMatchesQuantizeThenCount(t *testing.T) {
	var coef [blockSize * blockSize]int32
	checkCountBlock(t, "empty", &coef)

	// A lone coefficient at the end of the scan: the longest possible run.
	for _, v := range []int32{1, -1, 37, -4000, 34500, maxKernelCoef, -maxKernelCoef} {
		coef = [blockSize * blockSize]int32{}
		coef[zigzag8[63]] = v
		checkCountBlock(t, "lone@63", &coef)
		coef[zigzag8[0]] = -v
		checkCountBlock(t, "ends", &coef)
	}

	// Every position at the kernel domain's maximum: levels far beyond 2^15.
	for i := range coef {
		coef[i] = maxKernelCoef
		if i%3 == 0 {
			coef[i] = -maxKernelCoef
		}
	}
	checkCountBlock(t, "saturated", &coef)

	// Random sparsities and magnitudes, from dead-zone dust to the maximum.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		coef = [blockSize * blockSize]int32{}
		n := rng.Intn(65)
		scale := int64(1) << uint(1+rng.Intn(24))
		for i := 0; i < n; i++ {
			coef[rng.Intn(64)] = int32(rng.Int63n(2*scale-1) - scale + 1)
		}
		checkCountBlock(t, "random", &coef)
	}
}

// TestZeroBelowIsTheDeadZone pins the table to the quantizer it summarizes:
// one below the threshold quantizes to 0, the threshold itself to ±1.
func TestZeroBelowIsTheDeadZone(t *testing.T) {
	var coef, levels [blockSize * blockSize]int32
	for qp := 0; qp < 52; qp++ {
		z := int32(zeroBelow[qp])
		coef[0], coef[1], coef[2], coef[3] = z-1, -(z - 1), z, -z
		quantizeBlock(&coef, qp, &levels)
		if levels[0] != 0 || levels[1] != 0 || levels[2] != 1 || levels[3] != -1 {
			t.Errorf("qp %d: zeroBelow %d: levels of ±(z-1), ±z = %v, want 0 0 1 -1", qp, z, levels[:4])
		}
	}
}

// TestDeadZoneSkipNeverHidesALevel checks the bound the skip rests on, on a
// real inter-DCT cache: dctOr is the OR of the block's magnitudes (so at
// least its maximum), a block quantizeInterMB skips quantizes to nothing at
// that QP, and quantizeInterMB agrees with the quantize-then-count oracle —
// length, significance masks, and the levels of every block with one — on every
// inter macroblock at every QP.
func TestDeadZoneSkipNeverHidesALevel(t *testing.T) {
	enc := newTestEncoder(t, 96, 80)
	base := texturedFrame(96, 80, 11)
	if _, err := enc.Encode(base, EncodeOptions{BaseQP: 24}); err != nil {
		t.Fatal(err)
	}
	// Fresh noise over a shifted copy, plus a bright patch: residuals from
	// dead-zone dust to large.
	frame := chainFrame(shiftFrame(texturedFrame(96, 80, 12), 2, 1), 3)
	mf := enc.AnalyzeMotion(frame)
	cache := enc.buildInterDCTCache(frame, mf)
	var levels [blockSize * blockSize]int32
	inter, skipped := 0, 0
	for i, mode := range mf.Modes {
		if mode != ModeInter {
			continue
		}
		inter++
		for blk := i * 4; blk < i*4+4; blk++ {
			or, max := uint32(0), uint32(0)
			for _, c := range cache[blk] {
				a := uint32(absInt(int(c)))
				or |= a
				if a > max {
					max = a
				}
			}
			if enc.dctOr[blk] != or || or < max {
				t.Fatalf("block %d: dctOr = %d, OR of magnitudes = %d, max = %d", blk, enc.dctOr[blk], or, max)
			}
			for qp := 0; qp < 52; qp++ {
				if enc.dctOr[blk] >= zeroBelow[qp] {
					continue
				}
				skipped++
				if nz := quantizeBlockFixed(&cache[blk], qp, &levels); nz != 0 {
					t.Fatalf("block %d qp %d: skipped as dead-zone but has %d nonzero levels", blk, qp, nz)
				}
			}
		}
		for qp := 0; qp < 52; qp++ {
			var mbLevels [4 * blockSize * blockSize]int32
			masks := [4]uint64{9, 9, 9, 9} // stale masks from an earlier macroblock
			got := quantizeInterMB(cache[i*4:i*4+4], enc.dctOr[i*4:i*4+4], qp, mbLevels[:], masks[:], nil)
			if want := oracleCountInterMB(cache[i*4:i*4+4], qp); got != want {
				t.Fatalf("MB %d qp %d: quantizeInterMB = %d bits, oracle = %d", i, qp, got, want)
			}
			for blk := 0; blk < 4; blk++ {
				wantNZ := quantizeBlockFixed(&cache[i*4+blk], qp, &levels)
				wantMask := levelsMask(&levels)
				if masks[blk] != wantMask || (wantNZ != 0 && [blockSize * blockSize]int32(mbLevels[blk*64:]) != levels) {
					t.Fatalf("MB %d qp %d block %d: quantizeInterMB mask %#x, oracle %#x (or the levels differ)", i, qp, blk, masks[blk], wantMask)
				}
			}
		}
	}
	if inter == 0 || skipped == 0 {
		t.Fatalf("degenerate input: %d inter macroblocks, %d dead-zone skips", inter, skipped)
	}
}

// TestChooseIntraMatchesPerPixelOracle compares chooseIntra, and the mode
// each of intraBodies scores, with the per-pixel chooser and predictor at
// every block position of random planes — frame corner, top row and left
// column included — and on
// inputs built to tie: flat neighbourhoods (all three modes predict alike,
// DC must win) and transpose-symmetric blocks under equal top and left
// edges (vertical and horizontal score alike, vertical must win). The
// decoder's intraPredict is held to the same oracle for every mode.
func TestChooseIntraMatchesPerPixelOracle(t *testing.T) {
	const w, h = 48, 32
	rng := rand.New(rand.NewSource(31))
	modeSeen := [numIntraModes]int{}
	for trial := 0; trial < 60; trial++ {
		cur, recon := imgx.NewPlane(w, h), imgx.NewPlane(w, h)
		switch trial % 3 {
		case 0: // noise around a gradient
			for i := range cur.Pix {
				recon.Pix[i] = uint8(i%w*3 + rng.Intn(40))
				cur.Pix[i] = uint8(i%w*3 + rng.Intn(40))
			}
		case 1: // flat reconstruction: DC, vertical and horizontal coincide
			v := uint8(rng.Intn(256))
			for i := range cur.Pix {
				recon.Pix[i] = v
				cur.Pix[i] = uint8(rng.Intn(256))
			}
		case 2: // symmetric blocks under equal edges: vertical ties horizontal
			var edge [blockSize]uint8
			for k := range edge {
				edge[k] = uint8(10 + 4*k*k + rng.Intn(8))
			}
			for by := 0; by < h; by += blockSize {
				for bx := 0; bx < w; bx += blockSize {
					for y := 0; y < blockSize; y++ {
						for x := 0; x < blockSize; x++ {
							cur.Pix[(by+y)*w+bx+x] = uint8((int(edge[x]) + int(edge[y])) / 2)
						}
					}
					// The edges this block's right and lower neighbours read.
					for k, v := range edge {
						recon.Pix[(by+blockSize-1)*w+bx+k] = v
						recon.Pix[(by+k)*w+bx+blockSize-1] = v
					}
				}
			}
		}
		for py := 0; py < h; py += blockSize {
			for px := 0; px < w; px += blockSize {
				var pred [blockSize * blockSize]uint8
				var want [blockSize * blockSize]int32
				mode := chooseIntra(cur, recon, px, py, &pred)
				if m := chooseIntraMode(cur, recon, px, py); mode != m {
					t.Fatalf("trial %d block (%d,%d): chooseIntra = %d, per-pixel chooser = %d", trial, px, py, mode, m)
				}
				for _, body := range intraBodies {
					e := loadIntraEdge(recon, px, py)
					if m := e.choose(body.sad(cur.Pix[py*w+px:], w, &e.top, &e.left, e.dc)); m != mode {
						t.Fatalf("trial %d block (%d,%d): %s body chooses %d, per-pixel chooser %d", trial, px, py, body.name, m, mode)
					}
				}
				modeSeen[mode]++
				if trial%3 == 2 && px > 0 && py > 0 {
					// The tie this case exists for: the kernel must have
					// scored vertical = horizontal < DC and kept vertical.
					sad := func(m int) (s int) {
						oracleIntraPredict(recon, px, py, m, &want)
						for y := 0; y < blockSize; y++ {
							for x := 0; x < blockSize; x++ {
								s += absInt(int(cur.Pix[(py+y)*w+px+x]) - int(want[y*blockSize+x]))
							}
						}
						return s
					}
					if v, hz := sad(intraModeVertical), sad(intraModeHorizontal); v != hz || v >= sad(intraModeDC) || mode != intraModeVertical {
						t.Fatalf("trial %d block (%d,%d): tie case broken: V %d H %d DC %d, mode %d", trial, px, py, v, hz, sad(intraModeDC), mode)
					}
				}
				oracleIntraPredict(recon, px, py, mode, &want)
				for i := range pred {
					if int32(pred[i]) != want[i] {
						t.Fatalf("trial %d block (%d,%d) mode %d: pred[%d] = %d, oracle %d", trial, px, py, mode, i, pred[i], want[i])
					}
				}
				for m := 0; m < numIntraModes; m++ {
					intraPredict(recon, px, py, m, &pred)
					oracleIntraPredict(recon, px, py, m, &want)
					for i := range pred {
						if int32(pred[i]) != want[i] {
							t.Fatalf("trial %d block (%d,%d): intraPredict mode %d pred[%d] = %d, oracle %d", trial, px, py, m, i, pred[i], want[i])
						}
					}
				}
			}
		}
	}
	for m, n := range modeSeen {
		if n == 0 {
			t.Errorf("mode %d never chosen: the inputs do not exercise it", m)
		}
	}
}

// TestRCTrialsListEverySearchTrial pins the journal's rate-control record:
// with telemetry on, the search's trace holds one entry per trial pass it
// counted, on an intra and an inter search alike, and an encoded frame
// carries it exactly when rate control ran — never on a fixed-QP frame.
func TestRCTrialsListEverySearchTrial(t *testing.T) {
	cfg := DefaultConfig(64, 48)
	cfg.Obs = obs.NewRecorder(8)
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := texturedFrame(64, 48, 5)
	for i, opts := range []EncodeOptions{{BaseQP: 24}, {TargetBits: 20_000}, {BaseQP: 30}, {TargetBits: 9_000}} {
		ef, err := enc.Encode(chainFrame(base, i), opts)
		if err != nil {
			t.Fatal(err)
		}
		if ran := len(ef.RCTrials) > 0; ran != (opts.TargetBits > 0) {
			t.Errorf("frame %d (target %d): %d trials journaled", i, opts.TargetBits, len(ef.RCTrials))
		}
	}
	frame := chainFrame(base, 4)
	mf := enc.AnalyzeMotion(frame)
	cache := enc.buildInterDCTCache(frame, mf)
	for _, s := range []struct {
		ftype FrameType
		cache [][blockSize * blockSize]int32
	}{{IFrame, nil}, {PFrame, cache}} {
		_, trials, trace := enc.searchBaseQP(frame, s.ftype, mf, s.cache, 0, EncodeOptions{TargetBits: 9_000})
		if trials == 0 || len(trace) != trials {
			t.Errorf("%v search: ran %d trials, traced %d: %+v", s.ftype, trials, len(trace), trace)
		}
	}
}
