package sim

import (
	"math"
	"testing"

	"dive/internal/metrics"
	"dive/internal/netsim"
	"dive/internal/world"
)

// testClip renders a short clip once for all tests in this package.
var testClipCache = map[string]*world.Clip{}

func testClip(t *testing.T, profile world.Profile, dur float64, seed int64) *world.Clip {
	t.Helper()
	key := profile.Name + string(rune(int(dur*10))) + string(rune(seed))
	if c, ok := testClipCache[key]; ok {
		return c
	}
	profile.ClipDuration = dur
	c := world.GenerateClip(profile, seed)
	testClipCache[key] = c
	return c
}

func TestDiVERunBasics(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 2, 11)
	env := NewEnv(3)
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	scheme := &DiVE{}
	res, err := scheme.Run(clip, link, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "DiVE" {
		t.Errorf("scheme name %q", res.Scheme)
	}
	if len(res.Detections) != clip.NumFrames() || len(res.ResponseTimes) != clip.NumFrames() {
		t.Fatal("result length mismatch")
	}
	up := 0
	for i, ok := range res.Uploaded {
		if ok {
			up++
			if res.BitsSent[i] == 0 {
				t.Errorf("frame %d uploaded with zero bits", i)
			}
		}
		if res.ResponseTimes[i] <= 0 || math.IsInf(res.ResponseTimes[i], 0) {
			t.Errorf("frame %d response time %v", i, res.ResponseTimes[i])
		}
	}
	if up < clip.NumFrames()*8/10 {
		t.Errorf("only %d/%d frames uploaded on a healthy link", up, clip.NumFrames())
	}
	// Bitrate must track the link: total bits over the clip duration
	// cannot exceed ~1.5x the link rate for long.
	dur := float64(clip.NumFrames()) / clip.FPS
	if rate := float64(res.TotalBits()) / dur; rate > netsim.Mbps(2)*1.5 {
		t.Errorf("sent at %v bps over a 2 Mbps link", rate)
	}
	// Accuracy sanity: mAP against the oracle should be well above zero.
	oracle := OracleDetections(clip, env)
	if m := metrics.MAP(res.Detections, oracle, metrics.DefaultIoU); m < 0.3 {
		t.Errorf("DiVE mAP = %v on an easy link", m)
	}
	if rt := metrics.SummarizeLatency(res.ResponseTimes).Mean; rt > 0.5 {
		t.Errorf("mean response time %v too high", rt)
	}
}

func TestDiVEOutageTracking(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 3, 12)
	env := NewEnv(4)
	// 1 s outages every 2.5 s.
	mk := func() *netsim.Link {
		return netsim.NewLink(&netsim.OutageTrace{
			Inner: netsim.ConstantTrace(netsim.Mbps(2)),
			Start: 0.8, Interval: 2.5, Duration: 1.0,
		}, 0.012)
	}
	withMOT, err := (&DiVE{}).Run(clip, mk(), env)
	if err != nil {
		t.Fatal(err)
	}
	withoutMOT, err := (&DiVE{DisableMOT: true}).Run(clip, mk(), env)
	if err != nil {
		t.Fatal(err)
	}
	// Outages must actually cause local-only frames.
	local := 0
	for _, ok := range withMOT.Uploaded {
		if !ok {
			local++
		}
	}
	if local == 0 {
		t.Fatal("no frames fell back to local tracking despite outages")
	}
	oracle := OracleDetections(clip, env)
	mWith := metrics.MAP(withMOT.Detections, oracle, metrics.DefaultIoU)
	mWithout := metrics.MAP(withoutMOT.Detections, oracle, metrics.DefaultIoU)
	if mWith < mWithout {
		t.Errorf("MOT should help under outages: %v vs %v", mWith, mWithout)
	}
}

func TestDiVEDeterminism(t *testing.T) {
	clip := testClip(t, world.RobotCarLike(), 1.5, 13)
	env := NewEnv(5)
	run := func() *Result {
		link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(3)), 0.012)
		r, err := (&DiVE{}).Run(clip, link, env)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	for i := range a.ResponseTimes {
		if a.ResponseTimes[i] != b.ResponseTimes[i] || a.BitsSent[i] != b.BitsSent[i] {
			t.Fatalf("nondeterministic at frame %d", i)
		}
		if len(a.Detections[i]) != len(b.Detections[i]) {
			t.Fatalf("nondeterministic detections at frame %d", i)
		}
	}
}

func TestValidateClip(t *testing.T) {
	if err := validateClip(nil); err == nil {
		t.Error("nil clip accepted")
	}
	if err := validateClip(&world.Clip{}); err == nil {
		t.Error("empty clip accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{BitsSent: []int{10, 20}, ResponseTimes: []float64{0.1, 0.3}}
	if r.TotalBits() != 30 {
		t.Error("TotalBits wrong")
	}
}
