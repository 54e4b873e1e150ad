package world

import (
	"bytes"
	"testing"
)

// TestClipSourceMatchesGenerateClip pins the streaming contract: rendering
// frames on demand through ClipSource must be byte-identical to the eager
// GenerateClip — frames, ground truth, poses and the IMU track — so a
// pipelined capture stage can replace a pre-rendered clip with no output
// change.
func TestClipSourceMatchesGenerateClip(t *testing.T) {
	p := KITTILike() // IMU-bearing profile: covers the IMU draw order too
	p.ClipDuration = 1.0
	const seed = 42

	want := GenerateClip(p, seed)
	src := NewClipSource(p, seed)

	if src.NumFrames() != want.NumFrames() {
		t.Fatalf("NumFrames = %d, want %d", src.NumFrames(), want.NumFrames())
	}
	if src.Focal() != want.Focal {
		t.Errorf("Focal = %v, want %v", src.Focal(), want.Focal)
	}
	for i := 0; i < want.NumFrames(); i++ {
		frame, gt, pose := src.Frame(i)
		if !bytes.Equal(frame.Pix, want.Frames[i].Pix) {
			t.Fatalf("frame %d pixels differ from GenerateClip", i)
		}
		if len(gt) != len(want.GT[i]) {
			t.Fatalf("frame %d: %d GT boxes, want %d", i, len(gt), len(want.GT[i]))
		}
		for k := range gt {
			if gt[k] != want.GT[i][k] {
				t.Fatalf("frame %d GT box %d differs", i, k)
			}
		}
		if pose != want.Poses[i] {
			t.Fatalf("frame %d pose differs", i)
		}
	}
	if len(src.IMU()) != len(want.IMU) {
		t.Fatalf("IMU length %d, want %d", len(src.IMU()), len(want.IMU))
	}
	for k := range want.IMU {
		if src.IMU()[k] != want.IMU[k] {
			t.Fatalf("IMU sample %d differs", k)
		}
	}

	// Random access re-renders identically: the per-frame seed, not render
	// order, determines the output.
	again, _, _ := src.Frame(3)
	if !bytes.Equal(again.Pix, want.Frames[3].Pix) {
		t.Fatal("re-rendered frame 3 differs")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"nuScenes", "nuScenes-night", "RobotCar", "KITTI"} {
		p, ok := ProfileByName(name)
		if !ok || p.Name != name {
			t.Errorf("profile %s: got %q, found %v", name, p.Name, ok)
		}
	}
	if _, ok := ProfileByName("bogus"); ok {
		t.Error("bogus profile accepted")
	}
}
