package mvfield

import "dive/internal/geom"

// NormalizedMagnitude is one macroblock's Eq. (8) value: |v| / (R · y),
// which for translational flow equals ΔZ/(f·Y) and therefore depends only
// on the physical height of the surface the macroblock sees. Ground
// macroblocks — the lowest surface — share the smallest value.
type NormalizedMagnitude struct {
	Index int     // macroblock index
	Value float64 // |flow| / (R·y)
	OK    bool    // false when the vector is unusable for Eq. (8)
}

// Which vectors NormalizedMagnitudesInto keeps for Eq. (8).
const (
	// normMinFlow discards vectors shorter than this many pixels.
	normMinFlow = 0.5
	// normMinY is the least centered y coordinate of a kept vector:
	// macroblocks above (or at) the horizon cannot belong to the ground.
	normMinY = 4
	// normCosTol is the least cosine between a kept vector and the radial
	// direction from the FOE (the "points to the FOE" filter of Section
	// III-C1).
	normCosTol = 0.9
)

// NormalizedMagnitudesInto evaluates Eq. (8) for every macroblock of a
// rotation-corrected field against the given FOE, writing into dst's storage
// when it is large enough (nil: new storage), so a steady-state analysis
// loop allocates nothing.
func NormalizedMagnitudesInto(dst []NormalizedMagnitude, f *Field, foe geom.Vec2) []NormalizedMagnitude {
	out := dst
	if cap(out) < len(f.Vectors) {
		out = make([]NormalizedMagnitude, len(f.Vectors))
	}
	out = out[:len(f.Vectors)]
	for i, v := range f.Vectors {
		out[i] = NormalizedMagnitude{Index: i}
		if !v.Valid || v.Zero {
			continue
		}
		flowN := v.Flow.Norm()
		if flowN < normMinFlow {
			continue
		}
		if v.Pos.Y < normMinY {
			continue
		}
		r := v.Pos.Dist(foe)
		if r < 1e-6 {
			continue
		}
		if !PointsToward(v.Pos, v.Flow, foe, normCosTol) {
			continue
		}
		out[i] = NormalizedMagnitude{
			Index: i,
			Value: flowN / (r * v.Pos.Y),
			OK:    true,
		}
	}
	return out
}
