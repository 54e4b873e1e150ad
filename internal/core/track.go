package core

import (
	"math"

	"dive/internal/detect"
	"dive/internal/geom"
	"dive/internal/imgx"
	"dive/internal/mvfield"
)

// TrackConfig tunes motion-vector-based offline tracking (Section III-E).
type TrackConfig struct {
	// ScoreDecay multiplies a detection's confidence per tracked frame;
	// prolonged tracking degrades accuracy and this models that loss.
	ScoreDecay float64
	// MinScore drops tracked boxes whose decayed confidence falls below it.
	MinScore float64
}

// DefaultTrackConfig returns the tracker defaults.
func DefaultTrackConfig() TrackConfig {
	return TrackConfig{ScoreDecay: 0.97, MinScore: 0.2}
}

// TrackDetections advances cached detections by one frame using the motion
// vector field, as DiVE does while the uplink is down: each box follows the
// motion vectors inside it — a translation-plus-scale model fitted by least
// squares when enough vectors cover the box (the flow field's divergence
// carries the looming/receding signal), falling back to the mean vector
// otherwise. cx, cy locate the principal point (to convert the field's
// centered coordinates to pixels); w, h are the frame dimensions for
// clipping. Boxes that leave the frame or decay away are dropped.
func TrackDetections(dets []detect.Detection, field *mvfield.Field, cx, cy float64, w, h int, cfg TrackConfig) []detect.Detection {
	out := make([]detect.Detection, 0, len(dets))
	for _, d := range dets {
		shift, scale := boxMotion(field, d.Box, cx, cy)
		ccx := (float64(d.Box.MinX+d.Box.MaxX))/2 + shift.X
		ccy := (float64(d.Box.MinY+d.Box.MaxY))/2 + shift.Y
		halfW := float64(d.Box.W()) / 2 * scale
		halfH := float64(d.Box.H()) / 2 * scale
		nb := imgx.Rect{
			MinX: int(math.Round(ccx - halfW)), MinY: int(math.Round(ccy - halfH)),
			MaxX: int(math.Round(ccx + halfW)), MaxY: int(math.Round(ccy + halfH)),
		}
		clipped := nb.ClipTo(w, h)
		if nb.Area() == 0 || clipped.Area() < nb.Area()/3 || clipped.Empty() {
			continue // mostly out of frame
		}
		score := d.Score * cfg.ScoreDecay
		if score < cfg.MinScore {
			continue
		}
		out = append(out, detect.Detection{
			Class:   d.Class,
			Box:     clipped,
			Score:   score,
			Tracked: true,
		})
	}
	return out
}

// boxMotion estimates the similarity motion (translation + scale) of the
// content of box from the flow vectors inside it. With fewer than four
// usable vectors it degrades to the mean-translation model of Section
// III-E; with none it returns identity.
func boxMotion(field *mvfield.Field, box imgx.Rect, cx, cy float64) (geom.Vec2, float64) {
	if field == nil {
		return geom.Vec2{}, 1
	}
	bcx := float64(box.MinX+box.MaxX)/2 - cx // box center, centered coords
	bcy := float64(box.MinY+box.MaxY)/2 - cy
	var q geom.Normal3
	var sum geom.Vec2
	n := 0
	for _, v := range field.Vectors {
		px := v.Pos.X + cx
		py := v.Pos.Y + cy
		if px < float64(box.MinX) || px >= float64(box.MaxX) ||
			py < float64(box.MinY) || py >= float64(box.MaxY) || !v.Valid {
			continue
		}
		q.Add([3]float64{1, 0, v.Pos.X - bcx}, v.Flow.X)
		q.Add([3]float64{0, 1, v.Pos.Y - bcy}, v.Flow.Y)
		sum = sum.Add(v.Flow)
		n++
	}
	if n == 0 {
		return geom.Vec2{}, 1
	}
	mean := sum.Scale(1 / float64(n))
	if n < 4 {
		return mean, 1
	}
	u, err := q.Solve()
	if err != nil {
		return mean, 1
	}
	// Per-frame scale rate clamped: codec vectors are too coarse to
	// support extreme divergence estimates.
	s := 1 + geom.Clamp(u[2], -0.12, 0.12)
	return geom.Vec2{X: u[0], Y: u[1]}, s
}
