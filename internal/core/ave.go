package core

import "math"

// AVEConfig configures adaptive video encoding (Section III-D).
type AVEConfig struct {
	// FixedDelta, when positive, is the background QP offset δ of every
	// frame (Figures 11 and 12 sweep it). Zero selects DiVE's adaptive δ,
	// which grows with the extracted foreground: larger extracted
	// foregrounds are likelier to cover the real foreground, so the
	// background can be crushed harder.
	FixedDelta int
	// IFrameBudgetScale lets intra frames spend this multiple of the
	// per-frame budget; the transmit queue absorbs the burst over the
	// following frames instead of the I-frame collapsing to mush.
	IFrameBudgetScale float64
}

// DefaultAVEConfig returns DiVE's adaptive policy.
func DefaultAVEConfig() AVEConfig {
	return AVEConfig{IFrameBudgetScale: 3}
}

// The adaptive δ Delta computes when no FixedDelta is set.
const (
	// adaptiveCoeff is the constant the foreground fraction is multiplied
	// by to obtain δ (the paper: "δ equals current foreground size
	// multiplying a constant coefficient").
	adaptiveCoeff = 45
	// minDelta and maxDelta clamp the adaptive δ.
	minDelta, maxDelta = 4, 22
)

// Delta returns the QP offset for background macroblocks given the current
// foreground fraction of the frame.
func (c AVEConfig) Delta(foregroundFrac float64) int {
	if c.FixedDelta > 0 {
		return c.FixedDelta
	}
	d := int(math.Round(adaptiveCoeff * foregroundFrac))
	if d < minDelta {
		d = minDelta
	}
	if d > maxDelta {
		d = maxDelta
	}
	return d
}

// BuildQPOffsetsInto converts a foreground mask into the per-macroblock QP
// offset map: 0 on foreground, delta on background. A nil mask returns a
// flat map of delta/2 (no foreground knowledge: encode uniformly but do
// not spend foreground-grade bits everywhere). The map is written into dst's
// backing array when it is large enough, so the agent's per-frame encode
// prep allocates nothing in steady state. Safe because the codec never
// retains the offsets map past AnalyzeAndQuantize. Returns the map.
func BuildQPOffsetsInto(dst []int, mask []bool, numMBs, delta int) []int {
	offsets := dst
	if cap(offsets) < numMBs {
		offsets = make([]int, numMBs)
	}
	offsets = offsets[:numMBs]
	if mask == nil {
		for i := range offsets {
			offsets[i] = delta / 2
		}
		return offsets
	}
	for i := range offsets {
		if !mask[i] {
			offsets[i] = delta
		} else {
			offsets[i] = 0
		}
	}
	return offsets
}

// bitrateSafety is the fraction of the estimated bandwidth TargetBits
// budgets, leaving headroom for estimation error.
const bitrateSafety = 0.90

// TargetBits returns the per-frame bit budget for the estimated uplink
// bandwidth (bits/s) at the given frame rate.
func (c AVEConfig) TargetBits(bandwidthBps, fps float64) int {
	if fps <= 0 || bandwidthBps <= 0 {
		return 0
	}
	return int(bandwidthBps * bitrateSafety / fps)
}
