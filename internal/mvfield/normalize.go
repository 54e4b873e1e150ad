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

// NormalizeOptions tunes the Eq. (8) computation.
type NormalizeOptions struct {
	// CosTol is the minimum cosine between a flow vector and the radial
	// direction from the FOE for the vector to be kept (the "points to the
	// FOE" filter from Section III-C1).
	CosTol float64
	// MinY is the minimum centered y coordinate; macroblocks above (or at)
	// the horizon cannot belong to the ground.
	MinY float64
	// MinFlow discards vectors shorter than this many pixels.
	MinFlow float64
}

// DefaultNormalizeOptions returns the values used by DiVE.
func DefaultNormalizeOptions() NormalizeOptions {
	return NormalizeOptions{CosTol: 0.9, MinY: 4, MinFlow: 0.5}
}

// NormalizedMagnitudesInto evaluates Eq. (8) for every macroblock of a
// rotation-corrected field against the given FOE, writing into dst's storage
// when it is large enough (nil: new storage), so a steady-state analysis
// loop allocates nothing.
func NormalizedMagnitudesInto(dst []NormalizedMagnitude, f *Field, foe geom.Vec2, opts NormalizeOptions) []NormalizedMagnitude {
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
		if flowN < opts.MinFlow {
			continue
		}
		if v.Pos.Y < opts.MinY {
			continue
		}
		r := v.Pos.Dist(foe)
		if r < 1e-6 {
			continue
		}
		if !PointsToward(v.Pos, v.Flow, foe, opts.CosTol) {
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
