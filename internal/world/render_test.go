package world

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dive/internal/geom"
)

func TestTexturesDeterministic(t *testing.T) {
	nt := NoiseTexture{Base: 100, Amplitude: 40, Scale: 2, Seed: 7}
	if nt.Sample(1.5, 2.5) != nt.Sample(1.5, 2.5) {
		t.Error("NoiseTexture not deterministic")
	}
	st := StripedTexture{Base: 120, Amplitude: 30, Period: 2, Seed: 3}
	if st.Sample(0.3, 0.9) != st.Sample(0.3, 0.9) {
		t.Error("StripedTexture not deterministic")
	}
	rt := RoadTexture{Seed: 1, LaneWidth: 3.5, DashLen: 2, DashPeriod: 6, HalfWidth: 7.5}
	if rt.Sample(0.0, 1.0) != rt.Sample(0.0, 1.0) {
		t.Error("RoadTexture not deterministic")
	}
}

func TestTexturesHaveContrast(t *testing.T) {
	// Block matching needs gradients; verify each texture actually varies.
	texs := []Texture{
		NoiseTexture{Base: 100, Amplitude: 40, Scale: 2, Seed: 7},
		StripedTexture{Base: 120, Amplitude: 30, Period: 2, Seed: 3},
		RoadTexture{Seed: 1, LaneWidth: 3.5, DashLen: 2, DashPeriod: 6, HalfWidth: 7.5},
	}
	for ti, tex := range texs {
		lo, hi := 255, 0
		for i := 0; i < 400; i++ {
			v := int(tex.Sample(float64(i)*0.13, float64(i)*0.07))
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo < 20 {
			t.Errorf("texture %d has contrast %d, too flat", ti, hi-lo)
		}
	}
}

func TestValueNoiseRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		v := valueNoise(float64(i)*0.37, float64(i)*0.61, 99)
		if v < 0 || v >= 1.0000001 {
			t.Fatalf("valueNoise out of range: %v", v)
		}
	}
	// Continuity: nearby samples are close.
	a := valueNoise(5.5, 5.5, 1)
	b := valueNoise(5.501, 5.5, 1)
	if math.Abs(a-b) > 0.05 {
		t.Errorf("valueNoise discontinuous: %v vs %v", a, b)
	}
}

func TestBillboardMotion(t *testing.T) {
	actor := NewActor(1, ClassCar, geom.Vec3{Z: 10}, geom.Vec3{Z: 5}, 2, 1.5, 4, NoiseTexture{Base: 100, Amplitude: 30, Scale: 2}, 2, 4)
	if p := actor.Pos(1); math.Abs(p.Z-15) > 1e-9 {
		t.Errorf("pos(1) = %v", p)
	}
	// During the stop window the actor holds position.
	if p := actor.Pos(3); math.Abs(p.Z-20) > 1e-9 {
		t.Errorf("pos during stop = %v, want z=20", p)
	}
	if actor.Moving(3) {
		t.Error("actor should be stopped at t=3")
	}
	// After resume it moves again.
	if p := actor.Pos(5); math.Abs(p.Z-25) > 1e-9 {
		t.Errorf("pos after resume = %v, want z=25", p)
	}
	if !actor.Moving(5) {
		t.Error("actor should move at t=5")
	}
	static := NewStatic(2, ClassCar, geom.Vec3{Z: 5}, 2, 1.5, 4, NoiseTexture{})
	if static.Moving(1) {
		t.Error("static object reported moving")
	}
}

func TestBillboardAxes(t *testing.T) {
	b := NewStatic(1, ClassCar, geom.Vec3{Z: 20}, 2, 1.5, 4, NoiseTexture{})
	right, normal := b.Axes(0, geom.Vec3{})
	// Normal points from object toward camera (−z), horizontal.
	if math.Abs(normal.Z+1) > 1e-9 || math.Abs(normal.Y) > 1e-9 {
		t.Errorf("normal = %v", normal)
	}
	if math.Abs(right.Norm()-1) > 1e-9 {
		t.Errorf("right not unit: %v", right)
	}
	if math.Abs(right.Dot(normal)) > 1e-9 {
		t.Error("axes not orthogonal")
	}
	// Degenerate: camera exactly above the object.
	_, n2 := b.Axes(0, geom.Vec3{Z: 20, Y: -5})
	if n2.Norm() == 0 {
		t.Error("degenerate axes should fall back to a valid normal")
	}
}

func TestRenderProducesGroundSkyAndObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NuScenesLike()
	traj := p.Trajectory(rng)
	scene := buildScene(p, traj, rng)
	cam := NewCamera(p.focal(), p.W, p.H)
	pose := traj.At(0)
	cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
	rdr := NewRenderer(scene)
	frame, gts := rdr.Render(cam, 0, 42)
	if frame.W != p.W || frame.H != p.H {
		t.Fatalf("frame size %dx%d", frame.W, frame.H)
	}
	// Sky at top should be bright, road at bottom darker.
	top := float64(frame.At(p.W/2, 2))
	bottom := float64(frame.At(p.W/2, p.H-3))
	if top < 150 {
		t.Errorf("sky luma = %v, want bright", top)
	}
	if bottom > top {
		t.Errorf("road (%v) brighter than sky (%v)", bottom, top)
	}
	if len(gts) == 0 {
		t.Fatal("no ground-truth boxes in the opening frame")
	}
	for _, gt := range gts {
		if gt.Box.Empty() {
			t.Error("empty GT box")
		}
		if gt.Box.MinX < 0 || gt.Box.MaxX > p.W || gt.Box.MinY < 0 || gt.Box.MaxY > p.H {
			t.Errorf("GT box out of frame: %+v", gt.Box)
		}
		if gt.Class != ClassCar && gt.Class != ClassPedestrian {
			t.Errorf("GT class %v should never be structure", gt.Class)
		}
		if gt.Visible < rdr.MinVisible || gt.Visible > 1 {
			t.Errorf("GT visibility %v out of range", gt.Visible)
		}
	}
}

func TestRenderDeterminism(t *testing.T) {
	a := GenerateClip(KITTILike(), 5)
	b := GenerateClip(KITTILike(), 5)
	if a.NumFrames() != b.NumFrames() {
		t.Fatal("frame count differs")
	}
	for i := range a.Frames {
		for j := range a.Frames[i].Pix {
			if a.Frames[i].Pix[j] != b.Frames[i].Pix[j] {
				t.Fatalf("frame %d differs at pixel %d", i, j)
			}
		}
		if len(a.GT[i]) != len(b.GT[i]) {
			t.Fatalf("GT count differs at frame %d", i)
		}
	}
}

func TestOcclusionReducesVisibility(t *testing.T) {
	// Place a car behind a building: it must be dropped or reported with
	// low visibility.
	scene := &Scene{
		GroundY:   GroundPlaneY,
		GroundTex: RoadTexture{Seed: 1, LaneWidth: 3.5, DashLen: 2, DashPeriod: 6, HalfWidth: 7.5},
		Sky:       SkyTexture{Seed: 2},
	}
	car := NewStatic(1, ClassCar, geom.Vec3{Y: GroundPlaneY, Z: 40}, 2, 1.5, 4,
		NoiseTexture{Base: 100, Amplitude: 40, Scale: 2, Seed: 3})
	wall := NewStatic(2, ClassStructure, geom.Vec3{Y: GroundPlaneY, Z: 20}, 12, 8, 1,
		StripedTexture{Base: 120, Amplitude: 30, Period: 2, Seed: 4})
	scene.Objects = []*Billboard{car, wall}
	cam := NewCamera(250, 320, 192)
	rdr := NewRenderer(scene)
	_, gts := rdr.Render(cam, 0, 7)
	for _, gt := range gts {
		if gt.ObjectID == 1 {
			t.Errorf("fully occluded car still annotated (visible=%v)", gt.Visible)
		}
	}
	// Without the wall the car is annotated.
	scene.Objects = []*Billboard{car}
	_, gts = rdr.Render(cam, 0, 7)
	found := false
	for _, gt := range gts {
		if gt.ObjectID == 1 && gt.Visible > 0.8 {
			found = true
		}
	}
	if !found {
		t.Error("unoccluded car missing from ground truth")
	}
}

func TestGenerateClipShape(t *testing.T) {
	p := RobotCarLike()
	p.ClipDuration = 1
	clip := GenerateClip(p, 9)
	if clip.NumFrames() != 16 {
		t.Errorf("frames = %d, want 16 (1s at 16 FPS)", clip.NumFrames())
	}
	if clip.FPS != 16 {
		t.Errorf("FPS = %v, want 16", clip.FPS)
	}
	if len(clip.GT) != clip.NumFrames() || len(clip.Poses) != clip.NumFrames() {
		t.Error("GT/pose length mismatch")
	}
	if clip.IMU != nil {
		t.Error("RobotCar profile should not generate IMU")
	}
	k := KITTILike()
	k.ClipDuration = 1
	kc := GenerateClip(k, 9)
	if len(kc.IMU) != 100 {
		t.Errorf("IMU samples = %d, want 100", len(kc.IMU))
	}
}

func TestTrajectoryStates(t *testing.T) {
	tr := &EgoTrajectory{Segments: []TrajectorySegment{
		{Duration: 2, Speed: 0},
		{Duration: 2, Speed: 10},
		{Duration: 2, Speed: 10, YawRate: 0.2},
	}}
	if s := tr.At(1).State; s != MotionStatic {
		t.Errorf("t=1 state = %v", s)
	}
	if s := tr.At(3).State; s != MotionStraight {
		t.Errorf("t=3 state = %v", s)
	}
	if s := tr.At(5).State; s != MotionTurning {
		t.Errorf("t=5 state = %v", s)
	}
	if tr.Duration() != 6 {
		t.Errorf("duration = %v", tr.Duration())
	}
	// Past the end the pose freezes.
	p1, p2 := tr.At(6), tr.At(8)
	if p1.Pos.Sub(p2.Pos).Norm() > 1e-9 {
		t.Error("pose should freeze after trajectory end")
	}
}

func TestTrajectoryIntegrationTurn(t *testing.T) {
	// A quarter-circle left turn: 90° at constant speed.
	w := -math.Pi / 2 / 4 // -90° over 4 s
	tr := &EgoTrajectory{Segments: []TrajectorySegment{{Duration: 4, Speed: 5, YawRate: w}}}
	end := tr.At(4)
	if math.Abs(end.Yaw-(-math.Pi/2)) > 1e-9 {
		t.Errorf("final yaw = %v", end.Yaw)
	}
	// Radius r = v/|ω| = 5/(π/8) ≈ 12.73; end displacement |(r, r)|.
	r := 5 / math.Abs(w)
	if math.Abs(end.Pos.X+r) > 1e-6 || math.Abs(end.Pos.Z-r) > 1e-6 {
		t.Errorf("end pos = %v, want (-%v, 0, %v)", end.Pos, r, r)
	}
}

func TestIMUSampling(t *testing.T) {
	tr := &EgoTrajectory{Segments: []TrajectorySegment{{Duration: 2, Speed: 10, YawRate: 0.1}}}
	rng := rand.New(rand.NewSource(4))
	samples := tr.SampleIMU(2, 100, 0.001, rng)
	if len(samples) != 200 {
		t.Fatalf("samples = %d", len(samples))
	}
	var errSum float64
	for _, s := range samples {
		if s.TrueGY != 0.1 {
			t.Fatalf("true yaw rate = %v", s.TrueGY)
		}
		errSum += math.Abs(s.GyroY - s.TrueGY)
	}
	if mean := errSum / 200; mean > 0.005 {
		t.Errorf("IMU noise too large: %v", mean)
	}
}

func TestMotionStateString(t *testing.T) {
	if MotionStatic.String() != "static" || MotionStraight.String() != "straight" ||
		MotionTurning.String() != "turning" || MotionState(0).String() != "unknown" {
		t.Error("MotionState.String wrong")
	}
	if ClassCar.String() != "car" || ClassPedestrian.String() != "pedestrian" ||
		ClassStructure.String() != "structure" || Class(0).String() != "unknown" {
		t.Error("Class.String wrong")
	}
}

func TestNightProfileRendersDarker(t *testing.T) {
	day := NuScenesLike()
	day.ClipDuration = 0.25
	night := NuScenesNightLike()
	night.ClipDuration = 0.25
	dc := GenerateClip(day, 5)
	nc := GenerateClip(night, 5)
	meanLuma := func(p []uint8) float64 {
		s := 0.0
		for _, v := range p {
			s += float64(v)
		}
		return s / float64(len(p))
	}
	dMean := meanLuma(dc.Frames[0].Pix)
	nMean := meanLuma(nc.Frames[0].Pix)
	if nMean >= dMean*0.5 {
		t.Errorf("night mean luma %v not clearly below day %v", nMean, dMean)
	}
	// Contrast (std dev) collapses at night even though noise is boosted.
	std := func(p []uint8) float64 {
		m := meanLuma(p)
		s := 0.0
		for _, v := range p {
			d := float64(v) - m
			s += d * d
		}
		return s / float64(len(p))
	}
	if std(nc.Frames[0].Pix) >= std(dc.Frames[0].Pix)*0.3 {
		t.Errorf("night contrast %v not clearly below day %v",
			std(nc.Frames[0].Pix), std(dc.Frames[0].Pix))
	}
	// Same scene geometry: ground truth object counts match.
	if len(nc.GT[0]) > len(dc.GT[0]) {
		t.Errorf("night clip has more GT (%d) than day (%d)?", len(nc.GT[0]), len(dc.GT[0]))
	}
}

func TestBillboardDegenerateStopWindow(t *testing.T) {
	// resume before stopAt: the actor pauses at stopAt and the (invalid)
	// resume in the past must not produce time travel.
	a := NewActor(1, ClassCar, geom.Vec3{}, geom.Vec3{Z: 2}, 2, 1.5, 4, NoiseTexture{}, 3, 1)
	p2 := a.Pos(2)
	p5 := a.Pos(5)
	if p5.Z < p2.Z {
		t.Errorf("position went backwards: %v then %v", p2, p5)
	}
}

func TestProfileFocalMatchesFOV(t *testing.T) {
	p := NuScenesLike()
	f := p.focal()
	// Reconstruct the FOV from the focal length.
	fov := 2 * math.Atan(float64(p.W)/2/f) * 180 / math.Pi
	if math.Abs(fov-p.FOVDeg) > 0.01 {
		t.Errorf("focal %v gives FOV %v, want %v", f, fov, p.FOVDeg)
	}
}

func TestObjectsNearCulls(t *testing.T) {
	scene := &Scene{GroundY: GroundPlaneY, GroundTex: RoadTexture{HalfWidth: 7.5, LaneWidth: 3.5, DashLen: 2, DashPeriod: 6}}
	near := NewStatic(1, ClassCar, geom.Vec3{Z: 10}, 2, 1.5, 4, NoiseTexture{})
	far := NewStatic(2, ClassCar, geom.Vec3{Z: 500}, 2, 1.5, 4, NoiseTexture{})
	scene.Objects = []*Billboard{near, far}
	got := scene.ObjectsNear(nil, geom.Vec3{}, 0, 100)
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("culling returned %d objects", len(got))
	}
}

func TestGenerateDataset(t *testing.T) {
	p := KITTILike()
	p.ClipDuration = 0.5
	clips := GenerateDataset(p, 100, 3)
	if len(clips) != 3 {
		t.Fatalf("clips = %d", len(clips))
	}
	seen := map[int64]bool{}
	for _, c := range clips {
		if seen[c.Seed] {
			t.Error("duplicate clip seed")
		}
		seen[c.Seed] = true
		if c.NumFrames() == 0 {
			t.Error("empty clip in dataset")
		}
	}
}

func TestGeomClampBounds(t *testing.T) {
	if geomClamp(-1, 0, 1) != 0 || geomClamp(2, 0, 1) != 1 || geomClamp(0.5, 0, 1) != 0.5 {
		t.Error("geomClamp wrong")
	}
}

// matchOracle renders one frame with rdr at widths 1, 2 and 8 and with the
// three-pass oracle, and requires the same pixels, ground-truth boxes and
// final z-buffer.
func matchOracle(t *testing.T, name string, rdr *Renderer, cam *Camera, tt float64, seed int64) {
	t.Helper()
	oracle := newOracle(rdr)
	want, wantGT := oracle.Render(cam, tt, seed)
	n := cam.W * cam.H
	for _, workers := range []int{1, 2, 8} {
		rdr.workers = workers
		got, gotGT := rdr.Render(cam, tt, seed)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s, workers=%d: pixels differ from the oracle", name, workers)
		}
		if !reflect.DeepEqual(gotGT, wantGT) {
			t.Errorf("%s, workers=%d: ground truth %+v, oracle %+v", name, workers, gotGT, wantGT)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(rdr.depth[i]) != math.Float64bits(oracle.depth[i]) {
				t.Errorf("%s, workers=%d: depth[%d] = %v, oracle %v", name, workers, i, rdr.depth[i], oracle.depth[i])
				break
			}
		}
	}
}

// TestRenderMatchesOracle holds the one-pass renderer to the three-pass one
// it replaced, on generated clips and on hand-placed edge cases.
func TestRenderMatchesOracle(t *testing.T) {
	for _, p := range []Profile{NuScenesLike(), NuScenesNightLike(), RobotCarLike(), KITTILike()} {
		for _, seed := range []int64{1, 77, 2024, 31337} {
			src := NewClipSource(p, seed)
			n := src.NumFrames()
			for _, i := range []int{0, n / 2, n - 1} {
				tt := float64(i) / p.FPS
				pose := src.traj.At(tt)
				src.cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
				name := fmt.Sprintf("%s seed %d frame %d", p.Name, seed, i)
				matchOracle(t, name, src.rdr, src.cam, tt, seed*1_000_003+int64(i))
			}
		}
	}

	// Odd sizes put a ray exactly on the optical axis's row and column: with
	// no pitch the middle row is the horizon (d.Y = 0, sky), and with no yaw
	// the middle column meets a billboard whose normal is +x edge-on.
	tex := func(seed uint64) Texture { return NoiseTexture{Base: 110, Amplitude: 40, Scale: 2, Seed: seed} }
	scene := &Scene{
		GroundY:   GroundPlaneY,
		GroundTex: RoadTexture{Seed: 1, LaneWidth: 3.5, DashLen: 2, DashPeriod: 6, HalfWidth: 7.5},
		Sky:       SkyTexture{Seed: 2},
		Objects: []*Billboard{
			// Nearer than the 0.5 m near limit: culled per pixel.
			NewStatic(1, ClassCar, geom.Vec3{Y: GroundPlaneY, Z: 0.3}, 2, 3, 2, tex(3)),
			// Normal +x, seen edge-on along the middle column.
			NewStatic(2, ClassStructure, geom.Vec3{X: -2, Y: GroundPlaneY}, 10, 4, 6, StripedTexture{Base: 130, Amplitude: 30, Period: 2, Seed: 4}),
			// Two billboards at equal depth: the earlier one wins.
			NewStatic(3, ClassCar, geom.Vec3{X: 1.5, Y: GroundPlaneY, Z: 9}, 2, 1.5, 4, tex(5)),
			NewStatic(4, ClassCar, geom.Vec3{X: 1.5, Y: GroundPlaneY, Z: 9}, 2, 1.5, 4, tex(6)),
			NewStatic(5, ClassPedestrian, geom.Vec3{X: -1, Y: GroundPlaneY, Z: 14}, 0.7, 1.8, 0.5, tex(7)),
		},
	}
	cam := NewCamera(40, 33, 21)
	if nd := (geom.Vec3{X: 1}).Dot(cam.RayDir(16.5, 3.5)); nd != 0 {
		t.Fatalf("middle column ray has x component %v, want an edge-on hit", nd)
	}
	rdr := NewRenderer(scene)
	for _, c := range []struct {
		yaw, pitch, illum float64
	}{{0, 0, 1}, {0, 0, 0.3}, {0.3, 0.05, 1}, {-0.2, -0.1, 0.5}} {
		cam.SetPose(geom.Vec3{}, c.yaw, c.pitch)
		rdr.Illumination = c.illum
		matchOracle(t, fmt.Sprintf("hand-placed yaw %v pitch %v", c.yaw, c.pitch), rdr, cam, 0, 11)
	}
}

// TestRenderAllocs holds a warm width-1 render to what it returns — the
// plane, its pixels and the ground-truth slice — plus the band body's closure
// and the one parallel.Pool.Bands wraps it in: nothing per band, row, pixel
// or object.
func TestRenderAllocs(t *testing.T) {
	src := NewClipSource(NuScenesLike(), 7)
	src.rdr.workers = 1
	pose := src.traj.At(0)
	src.cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
	var gts []GTBox
	render := func() { _, gts = src.rdr.Render(src.cam, 0, 1) }
	render()
	if len(gts) == 0 {
		t.Fatal("the opening frame has no ground truth; the bound would not count its slice")
	}
	if allocs := testing.AllocsPerRun(10, render); allocs > 5 {
		t.Errorf("a warm width-1 render allocates %v objects, want at most 5", allocs)
	}
}
