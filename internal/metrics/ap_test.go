package metrics

import (
	"math"
	"testing"

	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/world"
)

func det(class world.Class, x, y, w, h int, score float64) detect.Detection {
	return detect.Detection{Class: class, Box: imgx.NewRect(x, y, w, h), Score: score}
}

func TestAPPerfectDetections(t *testing.T) {
	gts := [][]detect.Detection{
		{det(world.ClassCar, 10, 10, 40, 30, 1)},
		{det(world.ClassCar, 50, 10, 40, 30, 1), det(world.ClassCar, 100, 10, 40, 30, 1)},
	}
	if ap := AP(gts, gts, world.ClassCar, DefaultIoU); ap != 1 {
		t.Errorf("perfect AP = %v", ap)
	}
	if m := MAP(gts, gts, DefaultIoU); m != 1 {
		// No pedestrian GT and no pedestrian detections → ped AP 1.
		t.Errorf("perfect mAP = %v", m)
	}
}

func TestAPNoDetections(t *testing.T) {
	gts := [][]detect.Detection{{det(world.ClassCar, 10, 10, 40, 30, 1)}}
	dets := [][]detect.Detection{{}}
	if ap := AP(dets, gts, world.ClassCar, DefaultIoU); ap != 0 {
		t.Errorf("empty AP = %v", ap)
	}
}

func TestAPNoGroundTruth(t *testing.T) {
	empty := [][]detect.Detection{{}}
	if ap := AP(empty, empty, world.ClassCar, DefaultIoU); ap != 1 {
		t.Errorf("no-GT no-det AP = %v, want 1", ap)
	}
	fp := [][]detect.Detection{{det(world.ClassCar, 0, 0, 10, 10, 0.9)}}
	if ap := AP(fp, empty, world.ClassCar, DefaultIoU); ap != 0 {
		t.Errorf("no-GT with FP AP = %v, want 0", ap)
	}
}

func TestAPHalfDetected(t *testing.T) {
	gts := [][]detect.Detection{{
		det(world.ClassCar, 10, 10, 40, 30, 1),
		det(world.ClassCar, 100, 10, 40, 30, 1),
	}}
	dets := [][]detect.Detection{{det(world.ClassCar, 10, 10, 40, 30, 0.9)}}
	ap := AP(dets, gts, world.ClassCar, DefaultIoU)
	if math.Abs(ap-0.5) > 1e-9 {
		t.Errorf("AP = %v, want 0.5", ap)
	}
}

func TestAPFalsePositivesHurt(t *testing.T) {
	gts := [][]detect.Detection{{det(world.ClassCar, 10, 10, 40, 30, 1)}}
	// The false positive scores ABOVE the true positive: precision at the
	// TP is 1/2, so AP = 0.5.
	dets := [][]detect.Detection{{
		det(world.ClassCar, 200, 100, 40, 30, 0.95),
		det(world.ClassCar, 10, 10, 40, 30, 0.9),
	}}
	ap := AP(dets, gts, world.ClassCar, DefaultIoU)
	if math.Abs(ap-0.5) > 1e-9 {
		t.Errorf("AP = %v, want 0.5", ap)
	}
	// A low-scoring FP below the TP does not hurt.
	dets2 := [][]detect.Detection{{
		det(world.ClassCar, 10, 10, 40, 30, 0.9),
		det(world.ClassCar, 200, 100, 40, 30, 0.2),
	}}
	if ap := AP(dets2, gts, world.ClassCar, DefaultIoU); ap != 1 {
		t.Errorf("AP with trailing FP = %v, want 1", ap)
	}
}

func TestAPDuplicateDetectionsPenalized(t *testing.T) {
	gts := [][]detect.Detection{{det(world.ClassCar, 10, 10, 40, 30, 1)}}
	dets := [][]detect.Detection{{
		det(world.ClassCar, 10, 10, 40, 30, 0.9),
		det(world.ClassCar, 11, 11, 40, 30, 0.8), // duplicate
	}}
	ap := AP(dets, gts, world.ClassCar, DefaultIoU)
	if ap != 1 {
		// The duplicate ranks below the only match, so AP stays 1.
		t.Errorf("AP = %v", ap)
	}
	// With two GT objects, a duplicate that outranks the second object's
	// match drags precision down: AP = 0.5·1 + 0.5·(2/3).
	gts2 := [][]detect.Detection{{
		det(world.ClassCar, 10, 10, 40, 30, 1),
		det(world.ClassCar, 150, 10, 40, 30, 1),
	}}
	dets2 := [][]detect.Detection{{
		det(world.ClassCar, 10, 10, 40, 30, 0.9),
		det(world.ClassCar, 11, 11, 40, 30, 0.8), // duplicate of the first
		det(world.ClassCar, 150, 10, 40, 30, 0.7),
	}}
	ap = AP(dets2, gts2, world.ClassCar, DefaultIoU)
	want := 0.5 + 0.5*(2.0/3.0)
	if math.Abs(ap-want) > 1e-9 {
		t.Errorf("duplicate AP = %v, want %v", ap, want)
	}
}

func TestAPLocalizationThreshold(t *testing.T) {
	gts := [][]detect.Detection{{det(world.ClassCar, 0, 0, 40, 40, 1)}}
	// Shifted box with IoU just under 0.5.
	dets := [][]detect.Detection{{det(world.ClassCar, 21, 0, 40, 40, 0.9)}}
	iou := gts[0][0].Box.IoU(dets[0][0].Box)
	if iou >= 0.5 {
		t.Fatalf("test setup wrong: IoU %v", iou)
	}
	if ap := AP(dets, gts, world.ClassCar, DefaultIoU); ap != 0 {
		t.Errorf("misaligned AP = %v, want 0", ap)
	}
	// Looser threshold accepts it.
	if ap := AP(dets, gts, world.ClassCar, 0.3); ap != 1 {
		t.Errorf("AP@0.3 = %v, want 1", ap)
	}
}

func TestAPClassesSeparate(t *testing.T) {
	gts := [][]detect.Detection{{det(world.ClassPedestrian, 10, 10, 20, 40, 1)}}
	dets := [][]detect.Detection{{det(world.ClassCar, 10, 10, 20, 40, 0.9)}}
	if ap := AP(dets, gts, world.ClassPedestrian, DefaultIoU); ap != 0 {
		t.Errorf("cross-class AP = %v, want 0", ap)
	}
}

func TestAPPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AP(make([][]detect.Detection, 1), make([][]detect.Detection, 2), world.ClassCar, 0.5)
}

func TestSummarizeLatency(t *testing.T) {
	s := SummarizeLatency([]float64{0.1, 0.2, 0.3, 0.4})
	if math.Abs(s.Mean-0.25) > 1e-12 || s.N != 4 || s.Max != 0.4 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.P50-0.25) > 1e-9 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.P95 < 0.38 || s.P95 > 0.4 {
		t.Errorf("P95 = %v", s.P95)
	}
	if z := SummarizeLatency(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}
