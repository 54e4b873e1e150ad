package dive

import (
	"bytes"
	"testing"

	"dive/internal/imgx"
	"dive/internal/world"
)

func TestNewAgentValidation(t *testing.T) {
	cases := []Config{
		{},
		{Width: 320, Height: 192},
		{Width: 320, Height: 192, FPS: 12},
		{Width: 320, Height: 192, FPS: 12, FocalPx: 250, MEMethod: "bogus"},
		{Width: 321, Height: 192, FPS: 12, FocalPx: 250},
	}
	for i, c := range cases {
		if _, err := NewAgent(c); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestPublicPipelineRoundTrip(t *testing.T) {
	p := world.NuScenesLike()
	p.ClipDuration = 1.5
	clip := world.GenerateClip(p, 55)

	agent, err := NewAgent(Config{
		Width: clip.W, Height: clip.H, FPS: clip.FPS, FocalPx: clip.Focal,
		BandwidthPriorBps: Mbps(2), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(clip.W, clip.H)
	if err != nil {
		t.Fatal(err)
	}

	sawMoving, sawRegions := false, false
	for i, frame := range clip.Frames {
		now := float64(i) / clip.FPS
		out, err := agent.Process(frame, now)
		if err != nil {
			t.Fatal(err)
		}
		if out.Bits <= 0 || len(out.Bitstream) == 0 {
			t.Fatal("empty bitstream")
		}
		if i == 0 && !out.IsIFrame {
			t.Error("first frame must be intra")
		}
		img, err := dec.Decode(out.Bitstream)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if img.W != clip.W || img.H != clip.H {
			t.Fatal("decoded size wrong")
		}
		// Decoded frame should resemble the original.
		if psnr := imgx.PSNR(imgx.MSE(frame, img)); psnr < 18 {
			t.Errorf("frame %d: decoded PSNR %v", i, psnr)
		}
		if out.Moving {
			sawMoving = true
		}
		if len(out.ForegroundRegions) > 0 {
			sawRegions = true
			if out.ForegroundFraction <= 0 || out.ForegroundFraction > 1 {
				t.Errorf("foreground fraction %v", out.ForegroundFraction)
			}
		}
		tx := float64(out.Bits) / Mbps(2)
		agent.AckUplink(now, now+tx, out.Bits)
	}
	if !sawMoving {
		t.Error("agent never reported motion")
	}
	if !sawRegions {
		t.Error("agent never reported foreground regions")
	}
}

func TestPublicConfigKnobs(t *testing.T) {
	a, err := NewAgent(Config{
		Width: 64, Height: 64, FPS: 10, FocalPx: 100,
		MEMethod: "umh", GoPSize: 2, FixedDelta: 20, EtaThreshold: 0.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFrame(64, 64)
	for i := range f.Pix {
		f.Pix[i] = uint8(i % 256)
	}
	o1, err := a.Process(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !o1.IsIFrame {
		t.Error("first frame not I")
	}
	if o1.Delta != 20 {
		t.Errorf("fixed delta = %d", o1.Delta)
	}
	// GoP 2: frames 0, 2 are I.
	o2, _ := a.Process(f, 0.1)
	o3, _ := a.Process(f, 0.2)
	if o2.IsIFrame || !o3.IsIFrame {
		t.Errorf("GoP pattern wrong: %v %v", o2.IsIFrame, o3.IsIFrame)
	}
	// ForceNextIFrame overrides.
	a.ProcessAndCheckForcedI(t)
}

// ProcessAndCheckForcedI is a test helper on Agent (same package).
func (a *Agent) ProcessAndCheckForcedI(t *testing.T) {
	t.Helper()
	a.ForceNextIFrame()
	f := NewFrame(64, 64)
	out, err := a.Process(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsIFrame {
		t.Error("ForceNextIFrame ignored")
	}
}

func TestCacheDetections(t *testing.T) {
	a, err := NewAgent(Config{Width: 64, Height: 64, FPS: 10, FocalPx: 100})
	if err != nil {
		t.Fatal(err)
	}
	a.CacheDetections([]Detection{{Score: 0.9}})
	// No crash, state stored; the tracked path is exercised in
	// internal/sim tests.
}

func TestOutputFrameTypeString(t *testing.T) {
	o := &Output{IsIFrame: true}
	if o.FrameTypeString() != "I" {
		t.Error("I-frame name wrong")
	}
	o.IsIFrame = false
	if o.FrameTypeString() != "P" {
		t.Error("P-frame name wrong")
	}
}

func TestDecoderErrors(t *testing.T) {
	if _, err := NewDecoder(100, 64); err == nil {
		t.Error("expected error for non-MB-aligned size")
	}
	dec, err := NewDecoder(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode([]byte{0xff, 0x00}); err == nil {
		t.Error("expected error for garbage bitstream")
	}
}

// TestProcessRejectsWrongSizeFrames offers a 320×192 agent frames one row
// short, half its size and larger than it, each after two good frames and
// with a forced I-frame pending: every one must be an error, not a panic,
// and the next good frame's bitstream must be byte-identical to that of a
// control agent that was never offered the bad frame.
func TestProcessRejectsWrongSizeFrames(t *testing.T) {
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	clip := world.GenerateClip(p, 56)
	cfg := Config{Width: clip.W, Height: clip.H, FPS: clip.FPS, FocalPx: clip.Focal, BandwidthPriorBps: Mbps(2), Seed: 3}
	if clip.W != 320 || clip.H != 192 {
		t.Fatalf("clip is %dx%d, the sizes below assume 320x192", clip.W, clip.H)
	}
	for _, size := range [][2]int{{320, 190}, {160, 96}, {640, 384}} {
		agent, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		control, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want, got *Output
		for i := 0; i < 3; i++ {
			now := float64(i) / clip.FPS
			if i == 2 {
				agent.ForceNextIFrame()
				control.ForceNextIFrame()
				bad := NewFrame(size[0], size[1])
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%dx%d frame panicked: %v", size[0], size[1], r)
						}
					}()
					if _, err := agent.Process(bad, now); err == nil {
						t.Fatalf("%dx%d frame into a %dx%d agent was accepted", size[0], size[1], clip.W, clip.H)
					}
				}()
			}
			if want, err = control.Process(clip.Frames[i], now); err != nil {
				t.Fatal(err)
			}
			if got, err = agent.Process(clip.Frames[i], now); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bitstream, want.Bitstream) || got.IsIFrame != want.IsIFrame {
				t.Fatalf("%dx%d: frame %d differs from the control agent's (I-frame %v, control %v)", size[0], size[1], i, got.IsIFrame, want.IsIFrame)
			}
		}
		if !got.IsIFrame {
			t.Errorf("%dx%d: the forced I-frame pending before the bad frame was dropped", size[0], size[1])
		}
	}
}
