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
	tr.qp, tr.probed = enc.oracleBisectQP(frame, tr.ftype, mf, cache, clampQP(opts.MinQP), opts)
	if allQPs && tr.ftype == PFrame {
		for q := range tr.bits {
			tr.bits[q] = enc.countPass(frame, PFrame, mf, cache, q, opts.QPOffsets)
		}
	}
	return tr
}

// rcChain drives one rate-controlled encoder through frames/optsFor and
// holds every frame to the plain bisection: same base QP, and the same bytes
// as a second encoder handed that QP outright. On I-frames the probe
// sequence itself must be the bisection's; on P-frames the search may run at
// most two trials more than the bisection did. It returns the P-frame trial
// counts.
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
			if len(ef.RCTrials) != len(want.probed) || ran != len(want.probed) {
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

// TestPFrameBitsMonotoneButForHeader pins what the warm-started search
// stands on: over every P-frame of the 40 golden chains, the trial count
// less the header's ue(baseQP) never rises with the base QP.
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
// fitting QPs to 51 — and so must the warm-started search, wherever it
// starts.
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

// TestWarmStartEqualsBisection holds the warm-started search to the plain
// bisection on chosen QP and bytes while everything that moves the answer
// moves: budgets swinging ×4 and ÷4, budgets nothing fits and everything
// fits (answers at 51 and at the floor), random MinQP floors, forced and
// GoP I-frames with a scaled budget, flat, scripted and negative QP-offset
// maps (the last take the search off the monotone path altogether).
func TestWarmStartEqualsBisection(t *testing.T) {
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

// TestWarmStartProbeCount is the point of the warm start: on a steady budget
// a P-frame's search averages at most three trial passes where the
// bisection runs five or six (rcChain bounds the worst frame at the
// bisection's count plus two).
func TestWarmStartProbeCount(t *testing.T) {
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
