package obs

// FrameRecord is the lifecycle of one frame through the DiVE pipeline:
// capture → motion estimation → rotation removal → foreground extraction →
// AVE/rate control + entropy encode → uplink ack. It is a view, not a
// store: Recorder.FrameRecords derives each line from the frame's
// JournalRecord (the decision fields) and its agent spans (the durations).
// Durations are milliseconds; zero means the stage did not run for this
// frame, has not finished yet, or its span has left the span ring.
type FrameRecord struct {
	Frame   int     `json:"frame"`
	TimeSec float64 `json:"time_sec"` // capture time on the pipeline clock
	Type    string  `json:"type"`     // "I" or "P"

	// Analysis byproducts.
	Eta        float64 `json:"eta"`
	Moving     bool    `json:"moving"`
	ReusedFG   bool    `json:"reused_fg"`
	FGFraction float64 `json:"fg_fraction"`
	Delta      int     `json:"delta"`

	// Rate control.
	BaseQP     int     `json:"base_qp"`
	Bits       int     `json:"bits"`
	TargetBits int     `json:"target_bits"`
	EstBWBps   float64 `json:"est_bw_bps"`

	// Stage durations (wall clock, milliseconds): the agent spans "motion",
	// "rotation", "foreground", "encode", "emit" (the bitstream
	// serialization) and the root "frame" span.
	MotionMs     float64 `json:"motion_ms"`
	RotationMs   float64 `json:"rotation_ms"`
	ForegroundMs float64 `json:"foreground_ms"`
	EncodeMs     float64 `json:"encode_ms"`
	EmitMs       float64 `json:"emit_ms,omitempty"`
	TotalMs      float64 `json:"total_ms"`

	// Uplink ack, present once transport feedback arrived: acked payload
	// size and the serialization end time.
	AckBits   int     `json:"ack_bits,omitempty"`
	AckEndSec float64 `json:"ack_end_sec,omitempty"`
}

// FrameRecords derives the frame-lifecycle view, oldest first: one line per
// retained journal record, joined on trace ID with the agent spans of the
// same frame — the /debug/frames, divetrace -format jsonl and
// dive.Agent.WriteFrameTrace format (nil for a nil recorder).
func (r *Recorder) FrameRecords() []FrameRecord {
	if r == nil {
		return nil
	}
	journal := r.journal.Snapshot()
	out := make([]FrameRecord, len(journal))
	byTrace := make(map[uint64]*FrameRecord, len(journal))
	for i := range journal {
		j := &journal[i]
		out[i] = FrameRecord{
			Frame: j.Frame, TimeSec: j.TimeSec, Type: j.Type,
			Eta: j.Eta, Moving: j.Moving, ReusedFG: j.FGReused,
			FGFraction: j.FGFraction, Delta: j.Delta,
			BaseQP: j.BaseQP, Bits: j.Bits, TargetBits: j.TargetBits,
			EstBWBps: j.EstBWBps, AckBits: j.AckBits, AckEndSec: j.AckEndSec,
		}
		byTrace[j.TraceID] = &out[i]
	}
	for _, s := range r.spans.Snapshot() {
		fr := byTrace[s.TraceID]
		if fr == nil || s.Site != "agent" {
			continue
		}
		ms := s.DurSec * 1000
		switch s.Name {
		case "motion":
			fr.MotionMs = ms
		case "rotation":
			fr.RotationMs = ms
		case "foreground":
			fr.ForegroundMs = ms
		case "encode":
			fr.EncodeMs = ms
		case "emit":
			fr.EmitMs = ms
		case "frame":
			fr.TotalMs = ms
		}
	}
	return out
}
