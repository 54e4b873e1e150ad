package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// rcTrial is what a rate-controlled Encode is held against: the frame type
// the encoder is about to pick, and the QP and probes of the plain bisection
// (oracleBisectQP) run on the encoder's own state just before the encode.
type rcTrial struct {
	ftype  FrameType
	qp     int
	probed []int
	// bits is the trial count at every base QP (P-frames only).
	bits [52]int
}

// rcOracle evaluates the plain bisection for the frame enc is about to
// encode under opts, without disturbing enc (motion analysis is memoized and
// the DCT cache is rebuilt by the encode).
func rcOracle(enc *Encoder, frame *imgx.Plane, opts EncodeOptions, allQPs bool) rcTrial {
	tr := rcTrial{ftype: PFrame}
	if enc.ref == nil || opts.ForceIFrame || enc.cfg.GoPSize <= 1 || enc.frameIdx%enc.cfg.GoPSize == 0 {
		tr.ftype = IFrame
	}
	var mf *MotionField
	var cache [][blockSize * blockSize]int32
	if enc.ref != nil {
		mf = enc.AnalyzeMotion(frame)
	}
	if tr.ftype == PFrame {
		cache = enc.buildInterDCTCache(frame, mf)
	} else if opts.IFrameBudgetScale > 1 {
		opts.TargetBits = int(float64(opts.TargetBits) * opts.IFrameBudgetScale)
	}
	tr.qp, tr.probed = oracleBisectQP(clampQP(opts.MinQP), opts.TargetBits, func(q int) int {
		return enc.countPass(frame, tr.ftype, mf, cache, q, opts.QPOffsets)
	})
	if allQPs && tr.ftype == PFrame {
		for q := range tr.bits {
			tr.bits[q] = enc.countPass(frame, PFrame, mf, cache, q, opts.QPOffsets)
		}
	}
	return tr
}

// rcChain drives one rate-controlled encoder through frames/optsFor and
// holds every frame to the plain bisection: same base QP, and the same bytes
// as a second encoder handed that QP outright. Every frame's RCTrials lists
// each trial it ran. On I-frames the probe sequence itself must be the
// bisection's; on P-frames the search may run at most two trials more than
// the bisection did. It returns the P-frame trial counts.
func rcChain(t *testing.T, name string, cfg Config, n int, frameAt func(i int) *imgx.Plane, optsFor func(i int) EncodeOptions) (pTrials []int) {
	t.Helper()
	cfg.Obs = obs.NewRecorder(16)
	rc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = nil
	fixed, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := rc.cfg.Obs.Counter(obs.MetricRCTrials)
	for i := 0; i < n; i++ {
		frame, opts := frameAt(i), optsFor(i)
		want := rcOracle(rc, frame, opts, false)
		before := counter.Value()
		ef, err := rc.Encode(frame, opts)
		if err != nil {
			t.Fatalf("%s frame %d: %v", name, i, err)
		}
		ran := int(counter.Value() - before)
		if len(ef.RCTrials) != ran {
			t.Fatalf("%s frame %d: ran %d trials, RCTrials lists %d: %+v", name, i, ran, len(ef.RCTrials), ef.RCTrials)
		}
		if ef.Type != want.ftype {
			t.Fatalf("%s frame %d: type %v, oracle expected %v", name, i, ef.Type, want.ftype)
		}
		if ef.BaseQP != want.qp {
			t.Fatalf("%s frame %d (%v, target %d, floor %d): chose QP %d, plain bisection chooses %d (trials %+v)",
				name, i, ef.Type, opts.TargetBits, opts.MinQP, ef.BaseQP, want.qp, ef.RCTrials)
		}
		ff, err := fixed.Encode(frame, EncodeOptions{BaseQP: want.qp, QPOffsets: opts.QPOffsets, ForceIFrame: opts.ForceIFrame})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ef.Data, ff.Data) {
			t.Fatalf("%s frame %d: bitstream differs from a fixed-QP encode at the bisection's QP %d", name, i, want.qp)
		}
		if ef.Type == IFrame {
			if ran != len(want.probed) {
				t.Fatalf("%s frame %d: I-frame ran %d trials %+v, the bisection probes %v", name, i, ran, ef.RCTrials, want.probed)
			}
			for k, tr := range ef.RCTrials {
				if tr.QP != want.probed[k] {
					t.Fatalf("%s frame %d: I-frame probe sequence %+v, the bisection's is %v", name, i, ef.RCTrials, want.probed)
				}
			}
			continue
		}
		if ran > len(want.probed)+2 {
			t.Errorf("%s frame %d: %d trials, the bisection needs %d", name, i, ran, len(want.probed))
		}
		pTrials = append(pTrials, ran)
	}
	return pTrials
}

// TestPFrameBitsMonotoneButForHeader pins what the P-frame search stands on:
// over every P-frame of the 40 golden chains, the trial count less the
// header's ue(baseQP) never rises with the base QP.
func TestPFrameBitsMonotoneButForHeader(t *testing.T) {
	forEachGoldenConfig(func(name string, cfg Config, scripted bool) {
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mbw, mbh := enc.MBDims()
		base := texturedFrame(cfg.Width, cfg.Height, 31)
		for i := 0; i < 9; i++ {
			frame, opts := chainFrame(base, i), chainOpts(i, mbw*mbh, scripted)
			tr := rcOracle(enc, frame, opts, true)
			for q := 0; tr.ftype == PFrame && q < 51; q++ {
				if a, b := tr.bits[q]-ueBits(uint32(q)), tr.bits[q+1]-ueBits(uint32(q+1)); b > a {
					t.Errorf("%s frame %d: bits less header rise from %d at QP %d to %d at QP %d", name, i, a, q, b, q+1)
				}
			}
			if _, err := enc.Encode(frame, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestHeaderBreaksMonotonicityOnStaticScene shows why the header term is set
// apart: a frame that repeats its reference is all skips at every QP, so its
// size is a constant plus ue(baseQP) and *rises* where that code lengthens
// (QP 1, 3, 7, 15, 31). With the budget between two such steps "fits" is
// true below the step and false above it, the bisection walks away from the
// fitting QPs to 51 — and so must the model-guided search, wherever the last
// frame left its QP.
func TestHeaderBreaksMonotonicityOnStaticScene(t *testing.T) {
	cfg := DefaultConfig(96, 80)
	cfg.Deblock = false
	still := texturedFrame(96, 80, 3)
	for _, prev := range []int{0, 10, 14, 15, 40} {
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Encode(still, EncodeOptions{BaseQP: 0}); err != nil {
			t.Fatal(err)
		}
		frame := enc.Reconstructed().Clone()
		if _, err := enc.Encode(frame, EncodeOptions{BaseQP: prev}); err != nil {
			t.Fatal(err)
		}
		tr := rcOracle(enc, frame, EncodeOptions{TargetBits: 1 << 20}, true)
		if tr.bits[15] != tr.bits[14]+2 || tr.bits[31] != tr.bits[30]+2 {
			t.Fatalf("static frame should cost a constant plus ue(QP): %v", tr.bits)
		}
		opts := EncodeOptions{TargetBits: tr.bits[14]}
		want := rcOracle(enc, frame, opts, false)
		ef, err := enc.Encode(frame, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.qp != 51 || ef.BaseQP != want.qp {
			t.Errorf("from QP %d: chose %d, plain bisection chooses %d (expected 51)", prev, ef.BaseQP, want.qp)
		}
	}
}

// TestRCSearchEqualsBisection holds the model-guided search to the plain
// bisection on chosen QP and bytes while everything that moves the answer
// moves: budgets swinging ×4 and ÷4, budgets nothing fits and everything
// fits (answers at 51 and at the floor), random MinQP floors, forced and
// GoP I-frames with a scaled budget, flat, scripted and negative QP-offset
// maps (the last take the search off the monotone path altogether).
func TestRCSearchEqualsBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, m := range AllMEMethods() {
		for _, offsets := range []string{"flat", "scripted", "negative"} {
			cfg := DefaultConfig(96, 80)
			cfg.Method = m
			cfg.SubPel = rng.Intn(2) == 0
			cfg.GoPSize = 16
			mbs := (96 / MBSize) * (80 / MBSize)
			base := texturedFrame(96, 80, 31)
			budget := 12_000
			rcChain(t, m.String()+"/"+offsets, cfg, 40,
				func(i int) *imgx.Plane { return chainFrame(base, i) },
				func(i int) EncodeOptions {
					switch rng.Intn(8) {
					case 0:
						budget *= 4
					case 1:
						budget /= 4
					}
					if budget < 400 || budget > 400_000 {
						budget = 12_000
					}
					o := EncodeOptions{TargetBits: budget, IFrameBudgetScale: 3}
					switch rng.Intn(12) {
					case 0:
						o.TargetBits = 1 // nothing fits
					case 1:
						o.TargetBits = 1 << 24 // everything fits
					case 2:
						o.ForceIFrame = true
					}
					if rng.Intn(3) == 0 {
						o.MinQP = rng.Intn(52)
					}
					if offsets != "flat" {
						o.QPOffsets = chainOpts(i, mbs, true).QPOffsets
					}
					if offsets == "negative" {
						for k := range o.QPOffsets {
							o.QPOffsets[k] -= 5
						}
					}
					return o
				})
		}
	}
}

// steadyFrame is frame i of a clip whose cost per frame holds still: the
// texture pans at a constant rate under fresh sensor noise.
func steadyFrame(base *imgx.Plane, i int) *imgx.Plane {
	f := shiftFrame(base, 2*i, i)
	addNoise(f, rand.New(rand.NewSource(int64(i))), 4)
	return f
}

// addNoise perturbs every sample of p by up to ±amp, clamped to 8 bits.
func addNoise(p *imgx.Plane, rng *rand.Rand, amp int) {
	for k, v := range p.Pix {
		p.Pix[k] = clampPixI(int32(v) + int32(rng.Intn(2*amp+1)-amp))
	}
}

// TestRCProbeCountSteady is the point of the model: on a steady budget a
// P-frame's search averages at most three trial passes where the bisection
// runs five or six (rcChain bounds the worst frame at the bisection's count
// plus two).
func TestRCProbeCountSteady(t *testing.T) {
	for _, budget := range []int{20_000, 26_000, 34_000} {
		cfg := DefaultConfig(96, 80)
		cfg.GoPSize = 48
		base := texturedFrame(96, 80, 31)
		trials := rcChain(t, "steady", cfg, 48,
			func(i int) *imgx.Plane { return steadyFrame(base, i) },
			func(i int) EncodeOptions { return EncodeOptions{TargetBits: budget} })
		sum := 0
		for _, n := range trials {
			sum += n
		}
		if mean := float64(sum) / float64(len(trials)); mean > 3 {
			t.Errorf("budget %d: %.2f trials per P-frame on a steady budget, want ≤ 3 (%v)", budget, mean, trials)
		}
	}
}

// TestRCProbeCountAlternating pins content whose cost swings with period two
// on a steady budget: a panning frame under fresh noise (dear, coded coarse)
// alternates with a copy of it that repaints one patch (cheap, mostly
// skipped, coded fine). The last frame, its bits scaled by the coded
// macroblocks, and the secant steps after must hold the search to at most 3.5
// trial passes per P-frame where the bisection runs five or six. (The chains
// at the three budgets average 2.33, 3.03 and 3.43.)
func TestRCProbeCountAlternating(t *testing.T) {
	for _, budget := range []int{8_000, 13_000, 16_000} {
		cfg := DefaultConfig(96, 80)
		cfg.GoPSize = 64
		base := texturedFrame(96, 80, 31)
		var dear *imgx.Plane
		trials := rcChain(t, "alternating", cfg, 64,
			func(i int) *imgx.Plane {
				if i%2 == 0 {
					dear = steadyFrame(base, i)
					return dear
				}
				f := dear.Clone()
				for y := 24; y < 56; y++ {
					for x := 32; x < 64; x++ {
						f.Pix[y*f.W+x] = uint8(60 + (x*y+7*i)%150)
					}
				}
				return f
			},
			func(i int) EncodeOptions { return EncodeOptions{TargetBits: budget} })
		sum := 0
		for _, n := range trials {
			sum += n
		}
		if mean := float64(sum) / float64(len(trials)); mean > 3.5 {
			t.Errorf("budget %d: %.2f trials per P-frame on alternating frames, want ≤ 3.5 (%v)", budget, mean, trials)
		}
	}
}

// FuzzSearchBaseQP holds the search to the plain bisection without an
// encoder, on synthetic curves: the chosen QP must be oracleBisectQP's and
// the trial count at most its count plus two, over a chain of three frames
// on one model. On the bounded path a curve is g(q) + ue(q) with g
// non-increasing: random steps with plateaus, a constant (the all-skip frame,
// whose size rises with the header), log-linear, or a cliff. Off it (an
// I-frame) a curve may be anything, and a trial that overshoots the target
// may return any count above it, as a stopped trial does; the search then
// runs exactly the bisection's trials. Targets land inside the curve, under
// it (nothing fits) or over it (everything fits), with a random MinQP and a
// random model: no history, or one earlier frame, and any slope.
func FuzzSearchBaseQP(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(int64(i), uint8(i), uint8(3*i), uint8(i), i%3 != 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, minQP, history uint8, bounded bool) {
		rng := rand.New(rand.NewSource(seed))
		lo := int(minQP) % 52
		r := rcModel{k: 5 + 5*rng.Float64()}
		if history%2 == 1 {
			r.last.qp, r.last.bits, r.last.coded = rng.Intn(52), 1+rng.Intn(1<<18), rng.Intn(400)
		}
		for frame := 0; frame < 3; frame++ {
			var curve [52]int
			g := 100 + rng.Intn(1<<18)
			for q := range curve {
				switch shape % 5 {
				case 0: // random steps, plateaus included
					if rng.Intn(3) > 0 {
						g -= rng.Intn(g/8 + 1)
					}
				case 2: // log-linear, about six QP per halving
					g = int(float64(g) * (0.86 + 0.06*rng.Float64()))
				case 3: // a cliff at QP 30
					if q == 30 {
						g /= 16
					}
				case 4: // no order at all (an I-frame's curve)
					if !bounded {
						g = 100 + rng.Intn(1<<16)
					}
				}
				curve[q] = g + ueBits(uint32(q))
			}
			var target int
			switch rng.Intn(6) {
			case 0:
				target = 1 // nothing fits
			case 1:
				target = 1 << 30 // everything fits
			default:
				target = curve[rng.Intn(52)] + rng.Intn(5) - 2
			}
			want, probed := oracleBisectQP(lo, target, func(q int) int { return curve[q] })
			ran := [52]bool{}
			calls := 0
			got, trials := r.search(lo, target, rng.Intn(400), bounded, func(q int) int {
				if q < lo || q > 50 || ran[q] {
					t.Fatalf("frame %d: trial at QP %d (floor %d, ran before: %v)", frame, q, lo, ran[q])
				}
				ran[q] = true
				calls++
				if !bounded && curve[q] > target {
					return target + 1 + rng.Intn(curve[q]-target) // stopped on the way
				}
				return curve[q]
			})
			if got != want {
				t.Fatalf("frame %d (shape %d, floor %d, target %d, bounded %v): chose QP %d, the bisection chooses %d; curve %v",
					frame, shape%5, lo, target, bounded, got, want, curve)
			}
			if trials != calls {
				t.Fatalf("frame %d: reported %d trials, ran %d", frame, trials, calls)
			}
			if trials > len(probed)+2 || (!bounded && trials != len(probed)) {
				t.Fatalf("frame %d (shape %d, floor %d, target %d, bounded %v): %d trials, the bisection runs %d",
					frame, shape%5, lo, target, bounded, trials, len(probed))
			}
		}
	})
}
