package baselines

import (
	"hash/crc32"
	"testing"

	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/metrics"
	"dive/internal/netsim"
	"dive/internal/sim"
	"dive/internal/world"
)

func shortClip(t *testing.T, seed int64) *world.Clip {
	t.Helper()
	p := world.NuScenesLike()
	p.ClipDuration = 2
	return world.GenerateClip(p, seed)
}

func checkResult(t *testing.T, res *sim.Result, n int) {
	t.Helper()
	if len(res.Detections) != n || len(res.ResponseTimes) != n || len(res.BitsSent) != n {
		t.Fatalf("%s: result lengths wrong", res.Scheme)
	}
	for i := 0; i < n; i++ {
		if res.ResponseTimes[i] <= 0 {
			t.Fatalf("%s: frame %d response time %v", res.Scheme, i, res.ResponseTimes[i])
		}
	}
}

func TestO3RunShape(t *testing.T) {
	clip := shortClip(t, 21)
	env := sim.NewEnv(2)
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	res, err := (&O3{}).Run(clip, link, env)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, clip.NumFrames())
	// Exactly every key-interval-th frame uploads.
	for i, up := range res.Uploaded {
		want := i%o3KeyInterval == 0
		if up != want {
			t.Errorf("frame %d uploaded=%v, want %v", i, up, want)
		}
		// Tracked frames are fast; key frames pay the round trip.
		if !want && res.ResponseTimes[i] > 0.01 {
			t.Errorf("tracked frame %d response %v", i, res.ResponseTimes[i])
		}
		if want && res.ResponseTimes[i] < 0.02 {
			t.Errorf("key frame %d response %v suspiciously low", i, res.ResponseTimes[i])
		}
	}
	oracle := sim.OracleDetections(clip, env)
	if m := metrics.MAP(res.Detections, oracle, metrics.DefaultIoU); m <= 0.05 {
		t.Errorf("O3 mAP = %v, should be non-trivial", m)
	}
}

func TestEAARRunShape(t *testing.T) {
	clip := shortClip(t, 22)
	env := sim.NewEnv(3)
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	res, err := (&EAAR{}).Run(clip, link, env)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, clip.NumFrames())
	ups := 0
	for _, up := range res.Uploaded {
		if up {
			ups++
		}
	}
	if ups == 0 || ups == clip.NumFrames() {
		t.Errorf("EAAR uploaded %d frames, want key frames only", ups)
	}
	oracle := sim.OracleDetections(clip, env)
	if m := metrics.MAP(res.Detections, oracle, metrics.DefaultIoU); m <= 0.05 {
		t.Errorf("EAAR mAP = %v", m)
	}
}

func TestDDSRunShape(t *testing.T) {
	clip := shortClip(t, 23)
	env := sim.NewEnv(4)
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	res, err := (&DDS{}).Run(clip, link, env)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, clip.NumFrames())
	// Every frame uploads under DDS.
	for i, up := range res.Uploaded {
		if !up {
			t.Errorf("DDS frame %d not uploaded", i)
		}
	}
	oracle := sim.OracleDetections(clip, env)
	if m := metrics.MAP(res.Detections, oracle, metrics.DefaultIoU); m <= 0.1 {
		t.Errorf("DDS mAP = %v", m)
	}
}

// TestDDSPatchesOutliveLaterEncodes: a phase-2 patch waits in the queue for
// its feedback while later frames' patches are encoded on the same encoder,
// so the queued bitstream must be DDS's own copy. Each patch is checksummed
// when it is queued and again when it is flushed.
func TestDDSPatchesOutliveLaterEncodes(t *testing.T) {
	clip := shortClip(t, 23)
	queued := map[int]uint32{}
	waited := 0 // patches flushed after a later one was queued
	d := &DDS{}
	d.onPatch = func(idx int, data []byte, flushed bool) {
		sum := crc32.ChecksumIEEE(data)
		if !flushed {
			queued[idx] = sum
			return
		}
		if _, ok := queued[idx+1]; ok {
			waited++
		}
		if sum != queued[idx] {
			t.Errorf("frame %d: patch changed between queueing and flush", idx)
		}
	}
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	if _, err := d.Run(clip, link, sim.NewEnv(4)); err != nil {
		t.Fatal(err)
	}
	if len(queued) != clip.NumFrames() || waited == 0 {
		t.Fatalf("%d patches queued for %d frames, %d waited behind a later one", len(queued), clip.NumFrames(), waited)
	}
}

func TestDDSSlowerThanDiVE(t *testing.T) {
	// The paper's headline latency comparison: DDS pays two round trips,
	// DiVE one.
	clip := shortClip(t, 24)
	env := sim.NewEnv(5)
	dds, err := (&DDS{}).Run(clip, netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012), env)
	if err != nil {
		t.Fatal(err)
	}
	dive, err := (&sim.DiVE{}).Run(clip, netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012), env)
	if err != nil {
		t.Fatal(err)
	}
	ddsRT := metrics.SummarizeLatency(dds.ResponseTimes).Mean
	diveRT := metrics.SummarizeLatency(dive.ResponseTimes).Mean
	if ddsRT <= diveRT {
		t.Errorf("DDS (%v) should be slower than DiVE (%v)", ddsRT, diveRT)
	}
}

func TestRoiOffsets(t *testing.T) {
	boxes := []imgx.Rect{imgx.NewRect(32, 32, 32, 32)}
	off := regionOffsets(boxes, 10, 6, 0, 10)
	// MBs (2,2)..(3,3) are ROI.
	if off[2*10+2] != 0 || off[3*10+3] != 0 {
		t.Error("ROI MBs not zeroed")
	}
	if off[0] != 10 {
		t.Error("background offset wrong")
	}
	// Dilation expands the ROI.
	off = regionOffsets(boxes, 10, 6, 16, 10)
	if off[1*10+1] != 0 {
		t.Error("dilated ROI missing")
	}
	// Out-of-frame boxes are clipped safely.
	boxes[0] = imgx.NewRect(-100, -100, 50, 50)
	_ = regionOffsets(boxes, 10, 6, 16, 10)
}

func TestRegionOffsets(t *testing.T) {
	regions := []imgx.Rect{imgx.NewRect(64, 64, 16, 16)}
	off := regionOffsets(regions, 10, 6, 0, 51)
	if off[4*10+4] != 0 {
		t.Error("region MB not zeroed")
	}
	if off[0] != 51 {
		t.Error("non-region offset wrong")
	}
}

func TestTrackForwardMechanics(t *testing.T) {
	me, err := newOnDeviceME(64, 48, 100)
	if err != nil {
		t.Fatal(err)
	}
	f0 := imgx.NewPlane(64, 48)
	for i := range f0.Pix {
		f0.Pix[i] = uint8(i * 7 % 251)
	}
	field, err := me.step(f0)
	if err != nil {
		t.Fatal(err)
	}
	if field != nil {
		t.Error("first step should yield nil field")
	}
	// Shift content right by 3.
	f1 := imgx.NewPlane(64, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			f1.Set(x, y, f0.At(x-3, y))
		}
	}
	field, err = me.step(f1)
	if err != nil {
		t.Fatal(err)
	}
	if field == nil {
		t.Fatal("no field on second step")
	}
	dets := []detect.Detection{{Class: world.ClassCar, Box: imgx.NewRect(20, 16, 16, 16), Score: 0.9}}
	out := trackForward(dets, field, 64, 48)
	if len(out) != 1 {
		t.Fatal("detection lost")
	}
	if out[0].Box.MinX < 21 || out[0].Box.MinX > 25 {
		t.Errorf("tracked box = %+v, want shifted right by ≈3", out[0].Box)
	}
	if !out[0].Tracked || out[0].Score >= 0.9 {
		t.Error("tracking metadata wrong")
	}
}

func TestMaxiHelper(t *testing.T) {
	if maxi(3, 5) != 5 || maxi(5, 3) != 5 || maxi(-1, -2) != -1 {
		t.Error("maxi wrong")
	}
}
