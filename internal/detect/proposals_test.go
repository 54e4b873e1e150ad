package detect

import (
	"slices"
	"testing"

	"dive/internal/imgx"
	"dive/internal/world"
)

func TestProposalsOnCleanFrames(t *testing.T) {
	d := New(DefaultConfig())
	p := testFrame(31)
	gt := gtAt(imgx.NewRect(100, 80, 60, 40), world.ClassCar)
	hits := 0
	for s := int64(0); s < 40; s++ {
		for _, pr := range d.Proposals(new(Scratch), p, p, gt, s) {
			if pr.Box.IoU(gt[0].Box) > 0.2 {
				hits++
				break
			}
		}
	}
	if hits < 35 {
		t.Errorf("proposal rate %d/40 for a clean large object", hits)
	}
	// Proposal scores are low — they are candidates, not detections.
	for _, pr := range d.Proposals(new(Scratch), p, p, gt, 1) {
		if pr.Score > 0.5 {
			t.Errorf("proposal score %v too high", pr.Score)
		}
	}
}

func TestProposalsVanishWhenDestroyed(t *testing.T) {
	// An object whose pixels compression obliterated must propose (almost)
	// nothing — the DDS blind spot.
	d := New(DefaultConfig())
	p := testFrame(32)
	box := imgx.NewRect(100, 80, 24, 16) // small object
	gt := gtAt(box, world.ClassPedestrian)
	bad := degrade(p, box, 70, 33)
	hits := 0
	for s := int64(0); s < 40; s++ {
		for _, pr := range d.Proposals(new(Scratch), bad, p, gt, s) {
			if pr.Box.IoU(box) > 0.2 {
				hits++
				break
			}
		}
	}
	if hits > 10 {
		t.Errorf("destroyed object still proposed %d/40 times", hits)
	}
}

func TestProposalsMoreForgivingThanDetections(t *testing.T) {
	// At a marginal quality level, proposals must fire more often than
	// final detections — that is their purpose.
	d := New(DefaultConfig())
	p := testFrame(34)
	box := imgx.NewRect(100, 80, 40, 28)
	gt := gtAt(box, world.ClassCar)
	bad := degrade(p, box, 26, 35)
	dets, props := 0, 0
	for s := int64(0); s < 80; s++ {
		for _, dt := range d.Detect(bad, p, gt, s) {
			if dt.Box.IoU(box) > 0.2 {
				dets++
				break
			}
		}
		for _, pr := range d.Proposals(new(Scratch), bad, p, gt, s) {
			if pr.Box.IoU(box) > 0.2 {
				props++
				break
			}
		}
	}
	if props <= dets {
		t.Errorf("proposals (%d) should outnumber detections (%d) at marginal quality", props, dets)
	}
}

// TestProposalsReuseScratch holds proposals on one reused Scratch, whose
// slice starts with stale entries, to those on a fresh generator over three
// profiles' clips, clean and degraded, at several seeds; once the slice has
// grown, a call allocates nothing.
func TestProposalsReuseScratch(t *testing.T) {
	d := New(DefaultConfig())
	stale := Detection{Class: world.ClassCar, Box: imgx.NewRect(1, 2, 3, 4), Score: 2}
	s := Scratch{dets: []Detection{stale, stale, stale}}
	props := 0
	for _, p := range []world.Profile{world.NuScenesLike(), world.RobotCarLike(), world.KITTILike()} {
		p.ClipDuration = 0.3
		clip := world.GenerateClip(p, 6)
		for i, frame := range clip.Frames {
			full := imgx.Rect{MaxX: frame.W, MaxY: frame.H}
			for _, decoded := range []*imgx.Plane{frame, degrade(frame, full, 40, int64(i))} {
				for seed := int64(0); seed < 4; seed++ {
					want := d.Proposals(new(Scratch), decoded, frame, clip.GT[i], seed*611953+int64(i))
					got := d.Proposals(&s, decoded, frame, clip.GT[i], seed*611953+int64(i))
					if !slices.Equal(got, want) {
						t.Fatalf("%s frame %d seed %d: reused Scratch %v, fresh %v", p.Name, i, seed, got, want)
					}
					props += len(got)
				}
			}
			if allocs := testing.AllocsPerRun(10, func() {
				d.Proposals(&s, frame, frame, clip.GT[i], int64(i))
			}); allocs != 0 {
				t.Fatalf("%s frame %d: Proposals on a warm Scratch allocates %v times", p.Name, i, allocs)
			}
		}
	}
	if props == 0 {
		t.Error("no proposals at all: the comparison checks nothing")
	}
}
