package edge

import (
	"fmt"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/world"
)

// session is what the protocol remembers for one connection and nothing
// else — no socket, no clock, no telemetry handle — so its rules can be run,
// and checked, under any scheduler. Only its methods assign needKey and
// expect.
type session struct {
	clip *world.Clip
	seed int64
	dec  *codec.Decoder
	// det and res are reused frame to frame: the detector's scratch, and
	// the reply, whose Detections keep their capacity.
	det detect.Scratch
	res ResultMsg
	// needKey is set while the decoder's reference cannot be trusted: from
	// the handshake on and after every desync. While set, only an intra frame
	// reaches the decoder.
	needKey bool
	expect  int // the index whose reference is the frame decoded last
}

// outcome names the row of the transition table an input landed on.
type outcome uint8

const (
	outCorrupt      outcome = iota // wire error, or a FrameMsg payload that does not parse
	outWrongType                   // a well-formed message that is not a FrameMsg
	outOutOfRange                  // frame index outside the clip
	outUnreadable                  // the bitstream's frame header does not parse
	outDesynced                    // a predicted frame while needKey is set
	outDecodeFailed                // the decoder rejected the frame
	outDecoded                     // decoded: detections follow
	outAccepted                    // not a row: step passed the frame, decode settles it
)

// rules is the transition table (DESIGN.md §9): per outcome, what the reply
// carries, what happens to decoder sync and what the server counts. A frame
// at an unexpected index desyncs first and is then judged by the same rows;
// outDecoded alone clears needKey and moves expect.
var rules = [...]struct {
	frame    bool // a FrameMsg parsed: the reply names its index; the session's frame and byte counters move
	nack     bool // the session's NACK counter (MetricEdgeSessionNacks) moves
	keyframe bool // the reply sets NeedKeyframe
	desync   bool // needKey is set
}{
	outCorrupt:      {nack: true, keyframe: true, desync: true},
	outWrongType:    {nack: true},
	outOutOfRange:   {frame: true},
	outUnreadable:   {frame: true, nack: true, keyframe: true, desync: true},
	outDesynced:     {frame: true, nack: true, keyframe: true}, // decoder untouched
	outDecodeFailed: {frame: true, nack: true, keyframe: true, desync: true},
	outDecoded:      {frame: true},
}

// step takes what arrived — a recoverable wire error, or one message — and
// fills in the one reply it gets, returning the row that produced it. On
// outAccepted the frame is fit to decode and the reply is still open: the
// caller runs decode.
func (ss *session) step(typ byte, payload []byte, rerr error, res *ResultMsg) (FrameMsg, outcome) {
	*res = ResultMsg{Index: -1, Detections: res.Detections[:0]}
	if rerr != nil {
		return FrameMsg{}, ss.settle(res, outCorrupt, "corrupt message: "+rerr.Error())
	}
	if typ != MsgFrame {
		return FrameMsg{}, ss.settle(res, outWrongType, fmt.Sprintf("unexpected message type %d", typ))
	}
	fm, err := DecodeFrameMsg(payload)
	if err != nil {
		return FrameMsg{}, ss.settle(res, outCorrupt, "malformed frame: "+err.Error())
	}
	res.Index, res.SentNanos, res.TraceID = fm.Index, fm.SentNanos, fm.TraceID
	if fm.Index < 0 || fm.Index >= ss.clip.NumFrames() {
		return fm, ss.settle(res, outOutOfRange, fmt.Sprintf("frame index %d out of range", fm.Index))
	}
	if fm.Index != ss.expect {
		// The agent skipped frames (outage, frame-skip degradation): the
		// reference is stale.
		ss.needKey = true
	}
	ftype, err := codec.SniffFrameType(fm.Bitstream)
	switch {
	case err != nil:
		return fm, ss.settle(res, outUnreadable, "unreadable bitstream: "+err.Error())
	case ss.needKey && ftype != codec.IFrame:
		// Decoding it against the stale reference would silently corrupt
		// every frame until the next GoP.
		return fm, ss.settle(res, outDesynced, "decoder desynchronized")
	}
	return fm, outAccepted
}

// decode runs the decoder on a frame step accepted and settles its outcome.
// The returned picture is valid until the next decode.
func (ss *session) decode(fm *FrameMsg, res *ResultMsg) (*codec.DecodedFrame, outcome) {
	df, err := ss.dec.Decode(fm.Bitstream)
	if err != nil {
		return nil, ss.settle(res, outDecodeFailed, err.Error())
	}
	ss.needKey, ss.expect = false, fm.Index+1
	return df, outDecoded
}

// settle applies a failing row to the reply and to decoder sync.
func (ss *session) settle(res *ResultMsg, out outcome, msg string) outcome {
	res.Err, res.NeedKeyframe = msg, rules[out].keyframe
	if rules[out].desync {
		ss.needKey = true
	}
	return out
}
