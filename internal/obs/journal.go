package obs

// QPTrial is one consulted probe of the rate-control QP bisection: the base
// QP tried and the exact bit count the trial pass produced.
type QPTrial struct {
	QP   int `json:"qp"`
	Bits int `json:"bits"`
}

// JournalRecord is the decision journal of one frame: the inputs and
// outputs of every decision point the DiVE pipeline takes, from the
// motion-state judgement through rate control to outage handling. It is the
// causal companion of the frame's spans (which record how long stages took):
// the journal records what was decided and why, so an accuracy or bitrate
// anomaly can be attributed to a specific decision. It carries no wall-clock
// value, so a run's journal is byte-identical per seed.
// Exported as JSONL at /debug/journal and consumed by cmd/divedoctor.
type JournalRecord struct {
	TraceID uint64  `json:"trace_id"`
	Frame   int     `json:"frame"`
	TimeSec float64 `json:"time_sec"`
	Type    string  `json:"type"` // "I" or "P"

	// Motion-state judgement (paper §III-B2): the non-zero MV ratio, the
	// configured threshold, the verdict and its margin. MeanSAD is the mean
	// matching cost of the motion vectors — a cheap confidence signal (high
	// SAD = unreliable vectors, low-texture or night scenes).
	Eta          float64 `json:"eta"`
	EtaThreshold float64 `json:"eta_threshold"`
	Moving       bool    `json:"moving"`
	MeanSAD      float64 `json:"mean_sad"`

	// Rotational-component elimination (§III-B3). RotResidual is the mean
	// flow magnitude after rotation removal divided by the mean magnitude
	// before it (1 = nothing removed; small = rotation dominated the flow).
	RotOK       bool    `json:"rot_ok"`
	PhiX        float64 `json:"phi_x"`
	PhiY        float64 `json:"phi_y"`
	RotResidual float64 `json:"rot_residual"`

	// Focus of expansion used for foreground extraction (§III-B3), in
	// centered image coordinates.
	FOEX float64 `json:"foe_x"`
	FOEY float64 `json:"foe_y"`

	// Foreground extraction (§III-C): per-class macroblock counts from the
	// ground / background / foreground segmentation, the object count, and
	// whether a stale extraction was reused.
	GroundMBs  int     `json:"ground_mbs"`
	FGMBs      int     `json:"fg_mbs"`
	BGMBs      int     `json:"bg_mbs"`
	FGObjects  int     `json:"fg_objects"`
	FGFraction float64 `json:"fg_fraction"`
	FGReused   bool    `json:"fg_reused"`

	// Adaptive video encoding (§III-D): the background QP offset, the
	// bandwidth-derived bit budget, the bisection path that chose the base
	// QP (every consulted probe with its trial bit count), and the final
	// outcome.
	Delta      int       `json:"delta"`
	TargetBits int       `json:"target_bits"`
	BaseQP     int       `json:"base_qp"`
	Bits       int       `json:"bits"`
	RCTrials   []QPTrial `json:"rc_trials,omitempty"`

	// Bandwidth estimation (§III-D1): the estimate rate control consumed,
	// and — amended when transport feedback arrives — the acknowledged
	// serialization interval and the bandwidth the link actually realized
	// over it. Estimate vs. realized is the estimator-bias signal.
	EstBWBps      float64 `json:"est_bw_bps"`
	AckBits       int     `json:"ack_bits,omitempty"`
	AckStartSec   float64 `json:"ack_start_sec,omitempty"`
	AckEndSec     float64 `json:"ack_end_sec,omitempty"`
	RealizedBWBps float64 `json:"realized_bw_bps,omitempty"`

	// Outage handling (§III-E), amended by the transport loop: whether this
	// frame's upload was abandoned on the head-of-queue timer, the queue
	// delay that triggered it, how many cached detections local MOT carried
	// forward, and whether the drop forced the next frame intra.
	Outage        bool    `json:"outage,omitempty"`
	QueueDelaySec float64 `json:"queue_delay_sec,omitempty"`
	TrackedBoxes  int     `json:"tracked_boxes,omitempty"`
	ForcedIFrame  bool    `json:"forced_iframe,omitempty"`

	// Graceful degradation (link-health ladder), recorded at encode time
	// and amended by the transport: the ladder level and health score the
	// frame was encoded under, the QP floor it imposed, whether the ladder
	// suppressed the upload entirely, and — on the live link — reconnect
	// accounting and server keyframe NACKs. divedoctor grades
	// time-to-recover and reconnect storms from these.
	DegradeLevel      int     `json:"degrade_level,omitempty"`
	LinkHealth        float64 `json:"link_health,omitempty"`
	QPFloor           int     `json:"qp_floor,omitempty"`
	SkippedSend       bool    `json:"skipped_send,omitempty"`
	ReconnectAttempts int     `json:"reconnect_attempts,omitempty"`
	BackoffSec        float64 `json:"backoff_sec,omitempty"`
	NackKeyframe      bool    `json:"nack_keyframe,omitempty"`

	// Session migration (edge cluster): amended onto the first frame the new
	// member acknowledged after a handoff. MigrationGapSec is the measured
	// re-detection gap — last server detection on the old member to this ack.
	// MigrationForced distinguishes a failover (member died) from a planned
	// redirect (drain). divedoctor's migration-gap and
	// failover-storm detectors grade these.
	Migrated        bool    `json:"migrated,omitempty"`
	MigrationGapSec float64 `json:"migration_gap_sec,omitempty"`
	MigratedTo      string  `json:"migrated_to,omitempty"`
	MigrationForced bool    `json:"migration_forced,omitempty"`
}

// Journal returns the decision-journal ring (nil for a nil recorder).
func (r *Recorder) Journal() *Ring[JournalRecord] {
	if r == nil {
		return nil
	}
	return r.journal
}

// RecordJournal appends one decision record to the journal ring.
func (r *Recorder) RecordJournal(rec JournalRecord) { r.Journal().Append(rec) }

// AmendJournalFrame applies fn to the journal record of a specific frame —
// the one way to attach what happens after a frame was encoded: transport
// feedback (ack, realized bandwidth), outage/MOT handoffs and forced
// I-frames, whether it lands on the newest frame or, on a windowed
// transport, after later frames have already been journaled.
func (r *Recorder) AmendJournalFrame(frame int, fn func(*JournalRecord)) {
	r.Journal().AmendFrame(frame, fn)
}
