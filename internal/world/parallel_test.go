package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// renderWith renders a few frames of a standard scene at the given worker
// count and returns the concatenated pixels.
func renderWith(t *testing.T, workers int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	p := NuScenesLike()
	traj := p.Trajectory(rng)
	scene := buildScene(p, traj, rng)
	cam := NewCamera(p.focal(), p.W, p.H)
	rdr := NewRenderer(scene)
	rdr.workers = workers
	rdr.Illumination = 0.4 // exercise illumination and noise
	var out []byte
	for i := 0; i < 3; i++ {
		pose := traj.At(float64(i) / 10)
		cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
		frame, _ := rdr.Render(cam, float64(i)/10, int64(42+i))
		out = append(out, frame.Pix...)
	}
	return out
}

// TestRenderParallelMatchesSerial asserts the banded renderer's output is
// pixel-identical at every worker count: bands are fixed-height and each
// band's noise RNG is seeded by band index, never by the worker count.
func TestRenderParallelMatchesSerial(t *testing.T) {
	want := renderWith(t, 1)
	for _, workers := range []int{2, 8} {
		if got := renderWith(t, workers); !bytes.Equal(want, got) {
			t.Errorf("workers=%d: rendered pixels differ from serial", workers)
		}
	}
}

// TestBillboardParallelMatchesSerial isolates the billboards: sensor noise
// and illumination are disabled so every pixel difference would come from
// the order of the depth tests. Both the pixels and the ground-truth
// boxes (which depend on the per-object "did it rasterize" bit and the final
// z-buffer) must be identical at every worker count.
func TestBillboardParallelMatchesSerial(t *testing.T) {
	render := func(workers int) ([]byte, []GTBox) {
		rng := rand.New(rand.NewSource(5))
		p := RobotCarLike()
		traj := p.Trajectory(rng)
		scene := buildScene(p, traj, rng)
		cam := NewCamera(p.focal(), p.W, p.H)
		rdr := NewRenderer(scene)
		rdr.workers = workers
		rdr.NoiseStd = 0
		rdr.Illumination = 1
		var pix []byte
		var gts []GTBox
		for i := 0; i < 4; i++ {
			tt := float64(i) / 8
			pose := traj.At(tt)
			cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
			frame, gt := rdr.Render(cam, tt, int64(7+i))
			pix = append(pix, frame.Pix...)
			gts = append(gts, gt...)
		}
		return pix, gts
	}
	wantPix, wantGT := render(1)
	for _, workers := range []int{2, 3, 8} {
		gotPix, gotGT := render(workers)
		if !bytes.Equal(wantPix, gotPix) {
			t.Errorf("workers=%d: billboard pixels differ from serial", workers)
		}
		if len(gotGT) != len(wantGT) {
			t.Fatalf("workers=%d: %d ground-truth boxes, serial had %d", workers, len(gotGT), len(wantGT))
		}
		for i := range wantGT {
			if wantGT[i] != gotGT[i] {
				t.Errorf("workers=%d: GT box %d differs: %+v vs %+v", workers, i, gotGT[i], wantGT[i])
			}
		}
	}
}

// TestRenderBandsShareCameraRaceFree is the regression test for the Camera
// data race: the pose changes before every frame and the banded passes then
// read the camera from several goroutines at once. Camera used to rebuild
// its rotation lazily on first use, i.e. inside the bands; `go test -race`
// flags that, and passes now that SetPose rebuilds eagerly.
func TestRenderBandsShareCameraRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := KITTILike()
	traj := p.Trajectory(rng)
	scene := buildScene(p, traj, rng)
	cam := NewCamera(p.focal(), p.W, p.H)
	rdr := NewRenderer(scene)
	rdr.workers = 4
	for i := 0; i < 6; i++ {
		pose := traj.At(float64(i) / p.FPS)
		cam.SetPose(pose.Pos, pose.Yaw, pose.Pitch)
		rdr.Render(cam, float64(i)/p.FPS, int64(i))
	}
}

// TestClipPixelsUnchanged pins rendered clips, pixels and ground truth, to
// hashes taken before the renderer was last rewritten: the benchmark's
// kbit_frame and map depend on these clips bit for bit. The night profile
// pins the illumination and boosted-noise branch; the second seed per
// profile pins another scene and trajectory.
func TestClipPixelsUnchanged(t *testing.T) {
	cases := []struct {
		profile Profile
		seed    int64
		want    string
	}{
		{NuScenesLike(), 77, "5fac80a188daf1c29a963d88"},
		{RobotCarLike(), 77, "07c1c1a4218a2b9a58d52234"},
		{KITTILike(), 77, "879394cc835b303547a57cdb"},
		{NuScenesNightLike(), 77, "afcee3b6f7097c025f498a8c"},
		{NuScenesLike(), 2024, "02d5dd533ef69a5a2be4c199"},
		{RobotCarLike(), 2024, "bbc0aba69d4650f4a4290f86"},
		{KITTILike(), 2024, "7ba66b1b486f86b6e58e672d"},
		{NuScenesNightLike(), 2024, "3f872394dae13208ea12af55"},
	}
	for _, c := range cases {
		p := c.profile
		p.ClipDuration = 1
		clip := GenerateClip(p, c.seed)
		h := sha256.New()
		for i, f := range clip.Frames {
			h.Write(f.Pix)
			fmt.Fprintf(h, "%v", clip.GT[i])
		}
		if got := hex.EncodeToString(h.Sum(nil)[:12]); got != c.want {
			t.Errorf("%s seed %d: clip hash %s, want %s", p.Name, c.seed, got, c.want)
		}
	}
}
