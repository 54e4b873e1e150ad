package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"dive/internal/imgx"
	"dive/internal/obs"
)

// Decoder golden corpus. testdata/decoder_golden.json holds one hash per
// configuration — 5 ME methods × subpel on/off × deblock on/off × flat /
// scripted QP-offset maps — over an I/P chain's bitstreams, decoded planes,
// decoded MVs/modes and encoder reconstructions. The file was generated at
// the commit before the decoder fast path landed (PR 12's parent), so a
// pass proves the word-at-a-time reader, the shared reconstruction kernel,
// the sparse IDCT and the row-major deblock changed no bitstream and no
// pixel — including the known encoder/decoder deblock-QP drift with per-MB
// offsets, which must read exactly as before. Regenerate only for an
// intentional format change: go test ./internal/codec -run DecoderGolden -update-golden.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/decoder_golden.json")

const goldenPath = "testdata/decoder_golden.json"

// chainFrame is frame i of the deterministic golden/drift clip: a textured
// background panning at a varying rate with a bright square crossing it, so
// chains carry skip, inter and border-straddling motion.
func chainFrame(base *imgx.Plane, i int) *imgx.Plane {
	f := shiftFrame(base, (i*3)%13-6, (i*2)%7-3)
	x0, y0 := (i*5)%(f.W-12), (i*3)%(f.H-12)
	for y := y0; y < y0+12; y++ {
		for x := x0; x < x0+12; x++ {
			f.Pix[y*f.W+x] = uint8(200 + (x+y+i)%40)
		}
	}
	return f
}

// chainOpts scripts the per-frame options of a golden chain: fixed QP, rate
// control, a forced mid-chain I-frame and (scripted) a moving QP-offset map.
func chainOpts(i, mbs int, scripted bool) EncodeOptions {
	o := EncodeOptions{BaseQP: 18 + (i*7)%20}
	if i%4 == 3 {
		o = EncodeOptions{TargetBits: 30_000 + 4_000*i}
	}
	if i == 5 {
		o.ForceIFrame = true
	}
	if scripted {
		o.QPOffsets = make([]int, mbs)
		for k := range o.QPOffsets {
			if (k+i)%3 != 0 {
				o.QPOffsets[k] = 2 + (k+2*i)%9
			}
		}
	}
	return o
}

func goldenChainHash(t *testing.T, cfg Config, scripted bool) string {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mbw, mbh := enc.MBDims()
	base := texturedFrame(cfg.Width, cfg.Height, 31)
	h := sha256.New()
	for i := 0; i < 9; i++ {
		ef, err := enc.Encode(chainFrame(base, i), chainOpts(i, mbw*mbh, scripted))
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		h.Write(ef.Data)
		h.Write(df.Image.Pix)
		h.Write(enc.Reconstructed().Pix)
		for k := range df.MVs {
			var b [5]byte
			binary.LittleEndian.PutUint16(b[0:], uint16(df.MVs[k].X))
			binary.LittleEndian.PutUint16(b[2:], uint16(df.MVs[k].Y))
			b[4] = byte(df.Modes[k])
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// forEachGoldenConfig calls fn for each of the 40 golden configurations: 5 ME
// methods × subpel × deblock × flat/scripted QP offsets, keyed as in the
// golden file.
func forEachGoldenConfig(fn func(key string, cfg Config, scripted bool)) {
	for _, m := range AllMEMethods() {
		for _, subpel := range []bool{false, true} {
			for _, deblock := range []bool{false, true} {
				for _, scripted := range []bool{false, true} {
					cfg := DefaultConfig(96, 80)
					cfg.Method, cfg.SubPel, cfg.Deblock = m, subpel, deblock
					cfg.GoPSize = 48
					fn(fmt.Sprintf("%s/subpel=%v/deblock=%v/scripted=%v", m, subpel, deblock, scripted), cfg, scripted)
				}
			}
		}
	}
}

func TestDecoderGolden(t *testing.T) {
	got := map[string]string{}
	forEachGoldenConfig(func(key string, cfg Config, scripted bool) {
		got[key] = goldenChainHash(t, cfg, scripted)
	})
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, test produced %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: hash %s, golden %s", k, got[k], w)
		}
	}
}

// TestTrialEqualsFinal holds the rate-control trial to the final pass by
// property, over the golden chain configs: on every rate-controlled frame
// the trial at the chosen QP counted exactly the bits the final pass
// emitted, the chosen QP respects the floor, and it is the lowest that fits
// — the search ran the trial one QP below (unless that is under the floor)
// and it overshot the budget.
// The chain's budgets are cut to an eighth so they bind at this frame size,
// and its forced I-frame is rate-controlled too, so intra trials (which
// reconstruct into trial scratch) are covered as well as inter ones.
func TestTrialEqualsFinal(t *testing.T) {
	forEachGoldenConfig(func(name string, cfg Config, scripted bool) {
		cfg.Obs = obs.NewRecorder(16)
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mbw, mbh := enc.MBDims()
		base := texturedFrame(cfg.Width, cfg.Height, 31)
		for i := 0; i < 9; i++ {
			opts := chainOpts(i, mbw*mbh, scripted)
			opts.TargetBits /= 8
			if opts.ForceIFrame {
				opts.TargetBits = 20_000
			}
			opts.MinQP = (i * 5) % 23
			ef, err := enc.Encode(chainFrame(base, i), opts)
			if err != nil {
				t.Fatal(err)
			}
			if ef.BaseQP < opts.MinQP {
				t.Errorf("%s frame %d: base QP %d under the floor %d", name, i, ef.BaseQP, opts.MinQP)
			}
			if opts.TargetBits == 0 {
				continue
			}
			atQP, below := false, false
			for _, tr := range ef.RCTrials {
				switch tr.QP {
				case ef.BaseQP:
					atQP = true
					if tr.Bits != ef.NumBits {
						t.Errorf("%s frame %d: trial at QP %d counted %d bits, final pass emitted %d",
							name, i, tr.QP, tr.Bits, ef.NumBits)
					}
				case ef.BaseQP - 1:
					below = true
					if tr.Bits <= opts.TargetBits {
						t.Errorf("%s frame %d: QP %d already fit the budget (%d ≤ %d) but QP %d was chosen",
							name, i, tr.QP, tr.Bits, opts.TargetBits, ef.BaseQP)
					}
				}
			}
			// The bisection never probes 51: it is what remains when every
			// lower QP overshot.
			if !atQP && ef.BaseQP != 51 {
				t.Errorf("%s frame %d: no trial at the chosen QP %d: %+v", name, i, ef.BaseQP, ef.RCTrials)
			}
			// Fits at q, misses at q−1: the search always holds both halves
			// of the proof, however few trials it ran.
			if !below && ef.BaseQP > opts.MinQP {
				t.Errorf("%s frame %d: no trial one below the chosen QP %d: %+v", name, i, ef.BaseQP, ef.RCTrials)
			}
		}
	})
}

// TestDecoderMatchesEncoderOverLongChains is the structural-drift pin: over
// 100-frame chains the decoder's picture equals Encoder.Reconstructed() byte
// for byte whenever the QP map is flat or the loop filter is off, under
// random per-frame MinQP floors. (Per-MB offsets with deblocking on drift by
// design of the current bitstream — a skipped MB's offset is not signalled —
// and are pinned by the golden file.)
func TestDecoderMatchesEncoderOverLongChains(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range AllMEMethods() {
		for _, tc := range []struct {
			name              string
			deblock, scripted bool
		}{
			{"flat+deblock", true, false},
			{"flat", false, false},
			{"offsets", false, true},
		} {
			cfg := DefaultConfig(64, 48)
			cfg.Method, cfg.Deblock = m, tc.deblock
			cfg.GoPSize = 30
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mbw, mbh := enc.MBDims()
			base := texturedFrame(cfg.Width, cfg.Height, 5)
			for i := 0; i < 100; i++ {
				opts := chainOpts(i, mbw*mbh, tc.scripted)
				opts.MinQP = rng.Intn(41)
				ef, err := enc.Encode(chainFrame(base, i), opts)
				if err != nil {
					t.Fatal(err)
				}
				if ef.BaseQP < opts.MinQP {
					t.Fatalf("%s/%s frame %d: base QP %d under the floor %d", m, tc.name, i, ef.BaseQP, opts.MinQP)
				}
				df, err := dec.Decode(ef.Data)
				if err != nil {
					t.Fatalf("%s/%s frame %d: %v", m, tc.name, i, err)
				}
				if mse := imgx.MSE(df.Image, enc.Reconstructed()); mse != 0 {
					t.Fatalf("%s/%s frame %d: decoder drifted from encoder reconstruction (MSE %v)", m, tc.name, i, mse)
				}
			}
		}
	}
}
