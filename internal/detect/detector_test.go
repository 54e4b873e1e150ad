package detect

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dive/internal/imgx"
	"dive/internal/world"
)

// degrade returns a copy of p with uniform noise of the given amplitude
// inside rect (simulating local compression damage).
func degrade(p *imgx.Plane, rect imgx.Rect, amp int, seed int64) *imgx.Plane {
	rng := rand.New(rand.NewSource(seed))
	q := p.Clone()
	r := rect.ClipTo(p.W, p.H)
	for y := r.MinY; y < r.MaxY; y++ {
		for x := r.MinX; x < r.MaxX; x++ {
			v := int(q.At(x, y)) + rng.Intn(2*amp+1) - amp
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			q.Set(x, y, uint8(v))
		}
	}
	return q
}

func testFrame(seed int64) *imgx.Plane {
	rng := rand.New(rand.NewSource(seed))
	p := imgx.NewPlane(320, 192)
	for i := range p.Pix {
		p.Pix[i] = uint8(100 + rng.Intn(80))
	}
	return p
}

func gtAt(box imgx.Rect, class world.Class) []world.GTBox {
	return []world.GTBox{{ObjectID: 1, Class: class, Box: box, Depth: 20, Visible: 1, Moving: true}}
}

func TestPerfectQualityDetectsLargeObjects(t *testing.T) {
	d := New(DefaultConfig())
	p := testFrame(1)
	gt := gtAt(imgx.NewRect(100, 80, 60, 40), world.ClassCar)
	hits := 0
	for s := int64(0); s < 50; s++ {
		dets := d.Detect(p, p, gt, s)
		for _, det := range dets {
			if det.Class == world.ClassCar && det.Box.IoU(gt[0].Box) > 0.5 {
				hits++
				break
			}
		}
	}
	if hits < 48 {
		t.Errorf("pristine detection rate %d/50, want ≈ all", hits)
	}
}

func TestHeavyLocalDistortionKillsDetection(t *testing.T) {
	d := New(DefaultConfig())
	p := testFrame(2)
	box := imgx.NewRect(100, 80, 30, 20) // small-ish object
	gt := gtAt(box, world.ClassPedestrian)
	bad := degrade(p, box, 60, 3)
	hits := 0
	for s := int64(0); s < 50; s++ {
		for _, det := range d.Detect(bad, p, gt, s) {
			if det.Class == world.ClassPedestrian && det.Box.IoU(box) > 0.3 && !det.Tracked {
				hits++
				break
			}
		}
	}
	if hits > 15 {
		t.Errorf("detection rate %d/50 under heavy distortion, want low", hits)
	}
}

func TestBackgroundDistortionDoesNotAffectObject(t *testing.T) {
	// The DiVE premise: crushing the background while keeping the object
	// region clean must preserve detection.
	d := New(DefaultConfig())
	p := testFrame(3)
	box := imgx.NewRect(100, 80, 60, 40)
	gt := gtAt(box, world.ClassCar)
	// Degrade everything except the object.
	bad := degrade(p, imgx.NewRect(0, 0, 320, 70), 50, 4)
	bad = degrade(bad, imgx.NewRect(0, 130, 320, 62), 50, 5)
	hits := 0
	for s := int64(0); s < 50; s++ {
		for _, det := range d.Detect(bad, p, gt, s) {
			if det.Class == world.ClassCar && det.Box.IoU(box) > 0.5 {
				hits++
				break
			}
		}
	}
	if hits < 45 {
		t.Errorf("detection rate %d/50 with clean foreground, want ≈ all", hits)
	}
}

func TestLargerObjectsSurviveMoreDistortion(t *testing.T) {
	d := New(DefaultConfig())
	pBig := d.detectionProbability(28, 4000, 1)
	pSmall := d.detectionProbability(28, 150, 1)
	if pBig <= pSmall {
		t.Errorf("big %v <= small %v at equal PSNR", pBig, pSmall)
	}
	// Monotone in PSNR.
	if d.detectionProbability(40, 500, 1) <= d.detectionProbability(20, 500, 1) {
		t.Error("probability not monotone in PSNR")
	}
	// Occlusion reduces probability.
	if d.detectionProbability(40, 500, 0.4) >= d.detectionProbability(40, 500, 1) {
		t.Error("occlusion should reduce probability")
	}
}

func TestTinyObjectsIgnored(t *testing.T) {
	d := New(DefaultConfig())
	p := testFrame(6)
	gt := gtAt(imgx.NewRect(10, 10, 5, 5), world.ClassPedestrian)
	for s := int64(0); s < 20; s++ {
		for _, det := range d.Detect(p, p, gt, s) {
			if det.Box.IoU(gt[0].Box) > 0.3 {
				t.Fatal("sub-threshold object detected")
			}
		}
	}
}

func TestFalsePositivesOnlyWhenDegraded(t *testing.T) {
	d := New(DefaultConfig())
	p := testFrame(7)
	cleanFP, badFP := 0, 0
	bad := degrade(p, imgx.NewRect(0, 0, 320, 192), 45, 8)
	for s := int64(0); s < 60; s++ {
		cleanFP += len(d.Detect(p, p, nil, s))
		badFP += len(d.Detect(bad, p, nil, s))
	}
	if cleanFP != 0 {
		t.Errorf("false positives on pristine frames: %d", cleanFP)
	}
	if badFP == 0 {
		t.Error("no false positives on heavily degraded frames")
	}
}

func TestDetectDeterminism(t *testing.T) {
	d := New(DefaultConfig())
	p := testFrame(9)
	box := imgx.NewRect(60, 60, 50, 30)
	bad := degrade(p, box, 20, 10)
	gt := gtAt(box, world.ClassCar)
	a := d.Detect(bad, p, gt, 1234)
	b := d.Detect(bad, p, gt, 1234)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic detection")
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if poisson(0, rng) != 0 {
		t.Error("poisson(0) should be 0")
	}
	sum := 0
	const n = 2000
	for i := 0; i < n; i++ {
		sum += poisson(1.5, rng)
	}
	mean := float64(sum) / n
	if mean < 1.2 || mean > 1.8 {
		t.Errorf("poisson mean = %v, want ≈ 1.5", mean)
	}
}

// TestDetectIntoMatchesDetect holds the reused-scratch path to the fresh one
// over three profiles' clips, clean and degraded (so false positives fire
// too), on one Scratch whose slice starts with stale entries.
func TestDetectIntoMatchesDetect(t *testing.T) {
	d := New(DefaultConfig())
	stale := Detection{Class: world.ClassCar, Box: imgx.NewRect(1, 2, 3, 4), Score: 2}
	s := Scratch{dets: []Detection{stale, stale, stale}}
	fps := 0
	for _, p := range []world.Profile{world.NuScenesLike(), world.RobotCarLike(), world.KITTILike()} {
		p.ClipDuration = 0.3
		clip := world.GenerateClip(p, 5)
		for i, frame := range clip.Frames {
			full := imgx.Rect{MaxX: frame.W, MaxY: frame.H}
			for _, decoded := range []*imgx.Plane{frame, degrade(frame, full, 40, int64(i))} {
				for seed := int64(0); seed < 4; seed++ {
					want := d.Detect(decoded, frame, clip.GT[i], seed*7919+int64(i))
					got := d.DetectInto(&s, decoded, frame, clip.GT[i], seed*7919+int64(i))
					if !slices.Equal(got, want) {
						t.Fatalf("%s frame %d seed %d: DetectInto %v, Detect %v", p.Name, i, seed, got, want)
					}
					fps += len(d.falsePositives(nil, decoded, frame, rand.New(rand.NewSource(seed))))
				}
			}
		}
	}
	if fps <= 0 {
		t.Error("no degraded frame draws false positives: that path goes unchecked")
	}
}

// detectIntoOp returns the server's detect step at steady state: a degraded
// frame with a clip's ground truth, through one session's Scratch, over
// sixteen seeds in turn. A first lap of them grows the Scratch's slice to
// its largest frame.
func detectIntoOp() func() {
	p := world.NuScenesLike()
	p.ClipDuration = 0.2
	clip := world.GenerateClip(p, 18)
	frame := clip.Frames[0]
	decoded := degrade(frame, imgx.Rect{MaxX: frame.W, MaxY: frame.H}, 40, 1)
	d := New(DefaultConfig())
	var s Scratch
	const seeds = 16
	i := 0
	op := func() {
		d.DetectInto(&s, decoded, frame, clip.GT[0], int64(i%seeds))
		i++
	}
	for range seeds {
		op()
	}
	return op
}

// BenchmarkDetectInto times detectIntoOp: one frame per op.
func BenchmarkDetectInto(b *testing.B) {
	op := detectIntoOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// allocFree fails t unless op allocates nothing once warm: over the 200
// calls testing.AllocsPerRun counts after its warm-up call, the
// whole-number mean count must be 0 and runtime.MemStats.TotalAlloc at most
// 64 B a call. The byte bound fails an allocation on only some calls, which
// the truncated count reads as 0. Its 64 B, over 200 calls, leave room for
// a rare allocation made outside op while it runs (one of 5.5 kB was seen
// over 32 calls of a warm encoder).
func allocFree(t *testing.T, name string, op func()) {
	t.Helper()
	const runs = 200
	var before, after runtime.MemStats
	warm := false
	allocs := testing.AllocsPerRun(runs, func() {
		op()
		if !warm {
			warm = true
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; allocs != 0 || b > 64 {
		t.Errorf("%s: %.0f allocs and %d B per op, want 0 and at most 64", name, allocs, b)
	}
}

// TestDetectIntoAllocatesNothing holds BenchmarkDetectInto's op at 0
// allocations: a warm Scratch is all the detect step needs.
func TestDetectIntoAllocatesNothing(t *testing.T) {
	allocFree(t, "DetectInto on a warm Scratch", detectIntoOp())
}
