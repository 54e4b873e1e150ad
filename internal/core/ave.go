package core

import "math"

// DeltaPolicy selects how the foreground/background QP delta is chosen
// (Section III-D2; Figure 11 compares the options).
type DeltaPolicy int

// Delta policies.
const (
	// DeltaFixed always uses AVEConfig.FixedDelta.
	DeltaFixed DeltaPolicy = iota + 1
	// DeltaAdaptive scales the delta with the extracted foreground size:
	// larger extracted foregrounds are likelier to cover the real
	// foreground, so the background can be crushed harder.
	DeltaAdaptive
)

// String names the policy.
func (p DeltaPolicy) String() string {
	switch p {
	case DeltaFixed:
		return "fixed"
	case DeltaAdaptive:
		return "adaptive"
	default:
		return "unknown"
	}
}

// AVEConfig configures adaptive video encoding.
type AVEConfig struct {
	Policy     DeltaPolicy
	FixedDelta int
	// AdaptiveCoeff is the constant the foreground fraction is multiplied
	// by to obtain δ (the paper: "δ equals current foreground size
	// multiplying a constant coefficient").
	AdaptiveCoeff float64
	// MinDelta and MaxDelta clamp the adaptive δ.
	MinDelta, MaxDelta int
	// BitrateSafety is the fraction of the estimated bandwidth the encoder
	// targets, leaving headroom for estimation error.
	BitrateSafety float64
	// IFrameBudgetScale lets intra frames spend this multiple of the
	// per-frame budget; the transmit queue absorbs the burst over the
	// following frames instead of the I-frame collapsing to mush.
	IFrameBudgetScale float64
}

// DefaultAVEConfig returns DiVE's adaptive policy.
func DefaultAVEConfig() AVEConfig {
	return AVEConfig{
		Policy:            DeltaAdaptive,
		FixedDelta:        15,
		AdaptiveCoeff:     45,
		MinDelta:          4,
		MaxDelta:          22,
		BitrateSafety:     0.90,
		IFrameBudgetScale: 3,
	}
}

// Delta returns the QP offset for background macroblocks given the current
// foreground fraction of the frame.
func (c AVEConfig) Delta(foregroundFrac float64) int {
	if c.Policy == DeltaFixed {
		return c.FixedDelta
	}
	d := int(math.Round(c.AdaptiveCoeff * foregroundFrac))
	if d < c.MinDelta {
		d = c.MinDelta
	}
	if d > c.MaxDelta {
		d = c.MaxDelta
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

// TargetBits returns the per-frame bit budget for the estimated uplink
// bandwidth (bits/s) at the given frame rate.
func (c AVEConfig) TargetBits(bandwidthBps, fps float64) int {
	if fps <= 0 || bandwidthBps <= 0 {
		return 0
	}
	return int(bandwidthBps * c.BitrateSafety / fps)
}
