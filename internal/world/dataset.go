package world

import (
	"math"
	"math/rand"

	"dive/internal/geom"
	"dive/internal/imgx"
)

// MaxClipDuration is the longest clip, in seconds, that a program renders:
// the commands reject a longer -duration before rendering, and the edge
// server rejects a Hello that asks for one.
const MaxClipDuration = 3600

// Profile describes a synthetic stand-in for one of the paper's datasets.
// Resolutions are scaled-down versions of the originals with the macroblock
// grid preserved (multiples of 16); FPS and scene composition mimic each
// dataset's character.
type Profile struct {
	Name         string
	FPS          float64
	W, H         int
	FOVDeg       float64
	ClipDuration float64 // seconds per generated clip
	NumCars      int     // moving + parked cars per clip
	NumPeds      int
	Trajectory   func(*rand.Rand) *EgoTrajectory
	IMURate      float64 // Hz; 0 disables IMU generation
	IMUNoiseStd  float64 // rad/s
	// Illumination scales scene luma (1 = daylight). Low values compress
	// texture contrast the way night footage does.
	Illumination float64
	// SensorNoiseBoost multiplies the renderer's sensor noise; night
	// cameras apply analog gain, amplifying noise along with the signal.
	SensorNoiseBoost float64
}

// NuScenesLike mirrors nuScenes: 12 FPS urban stop-and-go driving with a
// car-heavy object mix (original 1600×900 → 320×192 here).
func NuScenesLike() Profile {
	return Profile{
		Name: "nuScenes", FPS: 12, W: 320, H: 192, FOVDeg: 65,
		ClipDuration: 8, NumCars: 14, NumPeds: 6,
		Trajectory: UrbanTrajectory,
	}
}

// NuScenesNightLike mirrors the nuScenes night clips the paper explicitly
// EXCLUDES from its evaluation ("almost all motion vectors are calculated
// to be zero at night"): low illumination crushes texture contrast while
// sensor gain amplifies noise, so block matching loses its signal. The
// night study reproduces that failure mode.
func NuScenesNightLike() Profile {
	p := NuScenesLike()
	p.Name = "nuScenes-night"
	p.Illumination = 0.06
	p.SensorNoiseBoost = 4.0
	return p
}

// RobotCarLike mirrors Oxford RobotCar: 16 FPS suburban driving with a
// pedestrian-heavy mix (original 1280×960 → 320×240 here).
func RobotCarLike() Profile {
	return Profile{
		Name: "RobotCar", FPS: 16, W: 320, H: 240, FOVDeg: 62,
		ClipDuration: 8, NumCars: 9, NumPeds: 12,
		Trajectory: SuburbanTrajectory,
	}
}

// KITTILike mirrors KITTI: 10 FPS highway/rural driving with a 100 Hz IMU
// (original 1242×375 → 400×128 here). It backs the rotation-estimation
// experiments (Figures 7 and 10).
func KITTILike() Profile {
	return Profile{
		Name: "KITTI", FPS: 10, W: 400, H: 128, FOVDeg: 80,
		ClipDuration: 8, NumCars: 8, NumPeds: 2,
		Trajectory: HighwayTrajectory,
		IMURate:    100, IMUNoiseStd: 0.004,
	}
}

// ProfileByName resolves a profile by its Name — the one name → profile table
// behind the edge handshake and every -profile flag.
func ProfileByName(name string) (Profile, bool) {
	for _, mk := range []func() Profile{NuScenesLike, NuScenesNightLike, RobotCarLike, KITTILike} {
		if p := mk(); p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Clip is one generated video clip with full ground truth.
type Clip struct {
	Profile string
	FPS     float64
	W, H    int
	Focal   float64
	Frames  []*imgx.Plane
	GT      [][]GTBox
	Poses   []Pose
	IMU     []IMUSample
	Seed    int64
}

// NumFrames returns the clip length in frames.
func (c *Clip) NumFrames() int { return len(c.Frames) }

// Focal returns the focal length in pixels for a profile.
func (p Profile) focal() float64 {
	return float64(p.W) / (2 * math.Tan(p.FOVDeg*math.Pi/360))
}

// ClipSource renders a clip frame by frame, on demand: GenerateClip pulls
// every frame through one, and a caller that times or traces each frame's
// render (the repo benchmark's serial render loop) pulls them itself. The
// trajectory, scene and IMU track are fixed at construction and every frame
// derives its sensor noise from a per-frame seed, so Frame(i) is
// byte-identical to GenerateClip(p, seed).Frames[i] regardless of how many
// frames are pulled.
//
// A ClipSource is not safe for concurrent use: Frame reuses the renderer's
// scratch state, so one goroutine pulls its frames.
type ClipSource struct {
	profile Profile
	seed    int64
	traj    *EgoTrajectory
	cam     *Camera
	rdr     *Renderer
	imu     []IMUSample
	n       int
}

// NewClipSource fixes the clip's trajectory, scene and IMU track for the
// given (profile, seed) pair, without rendering any frames.
func NewClipSource(p Profile, seed int64) *ClipSource {
	// RNG consumption order matches GenerateClip's original single pass
	// (trajectory, scene, IMU): the per-frame renders never touch this
	// generator, so sampling the IMU up front draws identical values.
	rng := rand.New(rand.NewSource(seed))
	traj := p.Trajectory(rng)
	scene := buildScene(p, traj, rng)
	rdr := NewRenderer(scene)
	if p.Illumination > 0 {
		rdr.Illumination = p.Illumination
	}
	if p.SensorNoiseBoost > 0 {
		rdr.NoiseStd *= p.SensorNoiseBoost
	}
	src := &ClipSource{
		profile: p,
		seed:    seed,
		traj:    traj,
		cam:     NewCamera(p.focal(), p.W, p.H),
		rdr:     rdr,
		n:       int(p.ClipDuration*p.FPS + 0.5),
	}
	if p.IMURate > 0 {
		src.imu = traj.SampleIMU(p.ClipDuration, p.IMURate, p.IMUNoiseStd, rng)
	}
	return src
}

// NumFrames returns the clip length in frames.
func (s *ClipSource) NumFrames() int { return s.n }

// Focal returns the camera focal length in pixels.
func (s *ClipSource) Focal() float64 { return s.profile.focal() }

// IMU returns the clip's IMU track (nil when the profile has no IMU).
func (s *ClipSource) IMU() []IMUSample { return s.imu }

// Frame renders frame i and returns it with its ground truth and ego pose.
func (s *ClipSource) Frame(i int) (*imgx.Plane, []GTBox, Pose) {
	t := float64(i) / s.profile.FPS
	pose := s.traj.At(t)
	s.cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
	frame, gt := s.rdr.Render(s.cam, t, s.seed*1_000_003+int64(i))
	return frame, gt, pose
}

// GenerateClip renders one clip of the profile with the given seed. The
// same (profile, seed) pair always produces the identical clip.
func GenerateClip(p Profile, seed int64) *Clip {
	src := NewClipSource(p, seed)
	clip := &Clip{
		Profile: p.Name, FPS: p.FPS, W: p.W, H: p.H, Focal: p.focal(),
		Frames: make([]*imgx.Plane, 0, src.n),
		GT:     make([][]GTBox, 0, src.n),
		Poses:  make([]Pose, 0, src.n),
		IMU:    src.imu,
		Seed:   seed,
	}
	for i := 0; i < src.n; i++ {
		frame, gt, pose := src.Frame(i)
		clip.Frames = append(clip.Frames, frame)
		clip.GT = append(clip.GT, gt)
		clip.Poses = append(clip.Poses, pose)
	}
	return clip
}

// GenerateDataset renders numClips clips with consecutive seeds.
func GenerateDataset(p Profile, baseSeed int64, numClips int) []*Clip {
	clips := make([]*Clip, 0, numClips)
	for i := 0; i < numClips; i++ {
		clips = append(clips, GenerateClip(p, baseSeed+int64(i)*7919))
	}
	return clips
}

// pathPoint is a sampled point of the ego route with its local heading.
type pathPoint struct {
	pos geom.Vec3
	yaw float64
}

// buildScene places roadside structure, parked and moving cars, and
// pedestrians along the ego's future path so that the generated world stays
// plausible whatever the trajectory does.
func buildScene(p Profile, traj *EgoTrajectory, rng *rand.Rand) *Scene {
	scene := &Scene{
		GroundY: GroundPlaneY,
		GroundTex: RoadTexture{
			Seed: uint64(rng.Int63()), LaneWidth: 3.5,
			DashLen: 2, DashPeriod: 6, HalfWidth: 7.5,
		},
		Sky: SkyTexture{Seed: uint64(rng.Int63())},
	}

	// Sample the route (plus lookahead beyond the end) every ~4 m.
	dur := traj.Duration()
	var path []pathPoint
	step := 0.1
	lastPos := traj.At(0).Pos
	path = append(path, pathPoint{lastPos, traj.At(0).Yaw})
	acc := 0.0
	endPose := traj.At(dur)
	for t := step; t < dur+0.01; t += step {
		pose := traj.At(t)
		acc += pose.Pos.Sub(lastPos).Norm()
		lastPos = pose.Pos
		if acc >= 4 {
			path = append(path, pathPoint{pose.Pos, pose.Yaw})
			acc = 0
		}
	}
	// Lookahead: extend 150 m straight past the end so the horizon is
	// never empty.
	dir := geom.Vec3{X: math.Sin(endPose.Yaw), Z: math.Cos(endPose.Yaw)}
	for d := 4.0; d <= 150; d += 4 {
		path = append(path, pathPoint{endPose.Pos.Add(dir.Scale(d)), endPose.Yaw})
	}

	id := 1
	// Buildings every few path samples on both sides.
	for i := 0; i < len(path); i += 3 {
		pt := path[i]
		for _, side := range []float64{-1, 1} {
			if rng.Float64() < 0.25 {
				continue // occasional gap
			}
			off := 11 + rng.Float64()*6
			w := 8 + rng.Float64()*8
			h := 5 + rng.Float64()*7
			pos := lateral(pt, side*off)
			scene.Objects = append(scene.Objects, NewStatic(
				id, ClassStructure, pos, w, h, w,
				StripedTexture{Base: 120 + rng.Float64()*60, Amplitude: 35, Period: 2.5 + rng.Float64()*2, Seed: uint64(rng.Int63())},
			))
			id++
		}
	}

	carTex := func() Texture {
		return NoiseTexture{Base: 60 + rng.Float64()*120, Amplitude: 45, Scale: 1.5, Seed: uint64(rng.Int63())}
	}
	pedTex := func() Texture {
		return NoiseTexture{Base: 70 + rng.Float64()*100, Amplitude: 50, Scale: 4, Seed: uint64(rng.Int63())}
	}

	// Ego cruise speed: lead vehicles move near it so they persist in the
	// field of view for many seconds, as real traffic does.
	cruise := 0.0
	for _, seg := range traj.Segments {
		if seg.Speed > cruise {
			cruise = seg.Speed
		}
	}

	// Cars: 40% parked at the curb, 40% leading in-lane near ego speed,
	// 20% oncoming.
	for i := 0; i < p.NumCars; i++ {
		anchor := path[rng.Intn(len(path))]
		switch i % 5 {
		case 0, 1: // parked
			side := 1.0
			if rng.Intn(2) == 0 {
				side = -1
			}
			pos := lateral(anchor, side*5.8)
			scene.Objects = append(scene.Objects, NewStatic(
				id, ClassCar, pos, 3.6+rng.Float64(), 1.5, 1.8, carTex()))
		case 2, 3: // same direction, in-lane, near ego speed, stop-and-go
			fwd := headingDir(anchor.yaw)
			speed := cruise * (0.75 + rng.Float64()*0.3)
			stopAt, resume := -1.0, -1.0
			if rng.Float64() < 0.4 {
				stopAt = rng.Float64() * dur * 0.5
				resume = stopAt + 1.5 + rng.Float64()*2
			}
			pos := lateral(anchor, (rng.Float64()-0.5)*1.5)
			scene.Objects = append(scene.Objects, NewActor(
				id, ClassCar, pos, fwd.Scale(speed), 2.0+rng.Float64()*0.5, 1.5, 4.2, carTex(), stopAt, resume))
		default: // oncoming
			fwd := headingDir(anchor.yaw)
			speed := 7 + rng.Float64()*7
			pos := lateral(anchor, -3.5)
			scene.Objects = append(scene.Objects, NewActor(
				id, ClassCar, pos, fwd.Scale(-speed), 2.0+rng.Float64()*0.5, 1.5, 4.2, carTex(), -1, -1))
		}
		id++
	}

	// Pedestrians: on sidewalks, walking along or across the road.
	for i := 0; i < p.NumPeds; i++ {
		anchor := path[rng.Intn(len(path))]
		side := 1.0
		if rng.Intn(2) == 0 {
			side = -1
		}
		pos := lateral(anchor, side*(6.5+rng.Float64()*2))
		var vel geom.Vec3
		if rng.Float64() < 0.3 {
			// Crossing: walk toward the other sidewalk.
			vel = lateral(anchor, 0).Sub(pos).Normalize().Scale(1.0 + rng.Float64()*0.5)
		} else {
			dirSign := 1.0
			if rng.Intn(2) == 0 {
				dirSign = -1
			}
			vel = headingDir(anchor.yaw).Scale(dirSign * (0.8 + rng.Float64()*0.8))
		}
		scene.Objects = append(scene.Objects, NewActor(
			id, ClassPedestrian, pos, vel, 0.55, 1.75, 0.5, pedTex(), -1, -1))
		id++
	}
	return scene
}

// lateral offsets a path point sideways (positive = right of heading).
func lateral(pt pathPoint, off float64) geom.Vec3 {
	right := geom.Vec3{X: math.Cos(pt.yaw), Z: -math.Sin(pt.yaw)}
	p := pt.pos.Add(right.Scale(off))
	p.Y = GroundPlaneY // stand on the ground
	return p
}

// headingDir converts a yaw angle to a horizontal unit direction.
func headingDir(yaw float64) geom.Vec3 {
	return geom.Vec3{X: math.Sin(yaw), Z: math.Cos(yaw)}
}
