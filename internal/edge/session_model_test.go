package edge

import (
	"fmt"
	"math/rand"
	"testing"

	"dive/internal/codec"
	"dive/internal/world"
)

// The resync invariants, by model instead of by example: a seeded generator
// feeds session.step every kind of input the wire can produce — no sockets,
// no sleeps — and after each one the session is held to an independent
// restatement of DESIGN.md §9's table (modelSession below). The example
// tests in edge_test.go cover the same rules through a socket.

// modelClip is a tiny real clip with, per frame, an intra bitstream and (from
// frame 1 on) a predicted one out of a plain I-P-P-… chain. Small pictures
// keep ten thousand decodes cheap under -race.
type modelClip struct {
	clip *world.Clip
	cfg  codec.Config
	i, p [][]byte
}

func newModelClip(t *testing.T) *modelClip {
	t.Helper()
	prof := world.NuScenesLike()
	prof.W, prof.H, prof.ClipDuration = 16, 16, 1
	mc := &modelClip{clip: world.GenerateClip(prof, 3)}
	mc.cfg = codec.DefaultConfig(mc.clip.W, mc.clip.H)
	chain, err := codec.NewEncoder(mc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	intra, err := codec.NewEncoder(mc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, frame := range mc.clip.Frames {
		pf, err := chain.Encode(frame, codec.EncodeOptions{BaseQP: 20})
		if err != nil {
			t.Fatal(err)
		}
		inf, err := intra.Encode(frame, codec.EncodeOptions{BaseQP: 20, ForceIFrame: true})
		if err != nil {
			t.Fatal(err)
		}
		if inf.Type != codec.IFrame || (k > 0 && pf.Type != codec.PFrame) {
			t.Fatalf("frame %d: unexpected frame types %v / %v", k, inf.Type, pf.Type)
		}
		mc.i = append(mc.i, append([]byte(nil), inf.Data...))
		mc.p = append(mc.p, append([]byte(nil), pf.Data...))
	}
	return mc
}

// modelSession is the table restated without the code under test: two fields
// and, per input, the reply flags and the new state.
type modelSession struct {
	desynced bool
	expect   int
}

// modelInput is one generated input and what the generator knows about it.
type modelInput struct {
	kind    string
	typ     byte
	payload []byte
	rerr    error
	// For inputs that carry a well-formed FrameMsg:
	frame  bool
	index  int
	intact bool // the bitstream is one the encoder produced, unmodified
}

func (mc *modelClip) generate(rng *rand.Rand, expect int) modelInput {
	n := mc.clip.NumFrames()
	frame := func(kind string, index int, bs []byte, intact bool) modelInput {
		fm := FrameMsg{Index: index, Bitstream: bs, SentNanos: rng.Int63(), TraceID: rng.Uint64(), SpanID: rng.Uint64()}
		return modelInput{kind: kind, typ: MsgFrame, payload: fm.appendPayload(nil), frame: true, index: index, intact: intact}
	}
	// bitstream picks the I or P encoding of an in-range frame.
	bitstream := func(index int) []byte {
		if index == 0 || rng.Intn(3) == 0 {
			return mc.i[index]
		}
		return mc.p[index]
	}
	clamp := func(index int) int { return max(0, min(n-1, index)) }
	at := clamp(expect) // expect is n once the clip was streamed to its end
	switch r := rng.Intn(100); {
	case r < 40:
		return frame("in-order", at, bitstream(at), true)
	case r < 50:
		return frame("keyframe", at, mc.i[at], true)
	case r < 58:
		k := clamp(expect + 1 + rng.Intn(3))
		return frame("gap", k, bitstream(k), true)
	case r < 64:
		k := clamp(expect - 1 - rng.Intn(2))
		return frame("repeat", k, bitstream(k), true)
	case r < 69:
		return frame("out-of-range", n+rng.Intn(1000), mc.i[0], true)
	case r < 76:
		bs := bitstream(at)
		return frame("truncated", at, bs[:rng.Intn(len(bs))], false)
	case r < 84:
		bs := append([]byte(nil), bitstream(at)...)
		for f := 1 + rng.Intn(3); f > 0; f-- {
			bs[rng.Intn(len(bs))] ^= 1 << rng.Intn(8)
		}
		return frame("bit-flipped", at, bs, false)
	case r < 89:
		in := frame("malformed", at, mc.i[at], true)
		in.frame = false
		if rng.Intn(2) == 0 {
			in.payload = in.payload[:rng.Intn(len(in.payload))]
		} else {
			in.payload = append(in.payload, byte(rng.Intn(256)))
		}
		return in
	case r < 94:
		wrong := []modelInput{
			{typ: MsgHello, payload: Hello{Profile: "nuScenes", Seed: 3}.appendPayload(nil)},
			{typ: MsgResult, payload: (&ResultMsg{Index: at}).appendPayload(nil)},
			{typ: MsgRedirect, payload: Redirect{Addr: "127.0.0.1:1"}.appendPayload(nil)},
		}[rng.Intn(3)]
		wrong.kind = "wrong-type"
		return wrong
	default:
		errs := []error{ErrChecksum, fmt.Errorf("%w: unknown type 9", ErrMalformed), fmt.Errorf("%w: claimed 99999999 bytes", ErrTooLarge)}
		return modelInput{kind: "wire-error", rerr: errs[rng.Intn(len(errs))]}
	}
}

// modelTag names an event in a failure message (formatted only then).
type modelTag struct {
	seq, ev int
	kind    string
}

func (m modelTag) String() string { return fmt.Sprintf("seq %d event %d (%s)", m.seq, m.ev, m.kind) }

func TestSessionStepModel(t *testing.T) {
	mc := newModelClip(t)
	n := mc.clip.NumFrames()
	rng := rand.New(rand.NewSource(18))
	const sequences, eventsPer = 256, 40
	kinds := map[string]int{}
	rows := map[outcome]int{}
	for seq := 0; seq < sequences; seq++ {
		dec, err := codec.NewDecoder(mc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := rng.Intn(n) // a resume at an arbitrary FirstFrame; 0 is a plain session
		ss := &session{clip: mc.clip, seed: 3, dec: dec, needKey: true, expect: first}
		model := modelSession{desynced: true, expect: first}
		for ev := 0; ev < eventsPer; ev++ {
			in := mc.generate(rng, model.expect)
			kinds[in.kind]++
			tag := modelTag{seq, ev, in.kind}

			// The model's verdict, before the code under test runs.
			wantIndex, wantKey, wantErr := -1, false, true
			toDecoder := false
			var ftype codec.FrameType
			switch {
			case in.rerr != nil, in.typ == MsgFrame && !in.frame: // wire error, malformed payload
				wantKey, model.desynced = true, true
			case in.typ != MsgFrame: // wrong type: answered, nothing else
			case in.index >= n: // out of range: per-frame error, nothing else
				wantIndex = in.index
			default:
				wantIndex = in.index
				if in.index != model.expect {
					model.desynced = true
				}
				fm, _ := DecodeFrameMsg(in.payload)
				var serr error
				if ftype, serr = codec.SniffFrameType(fm.Bitstream); serr != nil {
					wantKey, model.desynced = true, true
				} else if model.desynced && ftype != codec.IFrame {
					wantKey = true
				} else {
					toDecoder = true
				}
			}

			expectBefore := ss.expect
			var res ResultMsg
			fm, out := ss.step(in.typ, in.payload, in.rerr, &res)
			if (out == outAccepted) != toDecoder {
				t.Fatalf("%v: step returned row %d, model sends to decoder = %v", tag, out, toDecoder)
			}
			if out == outAccepted {
				// The invariant the whole protocol exists for.
				if model.desynced && ftype != codec.IFrame {
					t.Fatalf("%v: predicted frame handed to the decoder while desynced", tag)
				}
				_, out = ss.decode(&fm, &res)
				if out == outDecoded {
					wantErr, model.desynced, model.expect = false, false, in.index+1
				} else {
					wantKey, model.desynced = true, true
					if in.intact && ftype == codec.IFrame {
						// Whatever came before — a failed decode included — the
						// decoder must still take a good intra frame.
						t.Fatalf("%v: intact I-frame failed to decode: %s", tag, res.Err)
					}
				}
			}
			rows[out]++

			// Exactly one reply, naming the frame or -1, flagged as the table says.
			if res.Index != wantIndex || res.NeedKeyframe != wantKey || (res.Err != "") != wantErr {
				t.Fatalf("%v: reply %+v, model wants index %d keyframe %v error %v", tag, res, wantIndex, wantKey, wantErr)
			}
			if in.frame && (res.SentNanos != fm.SentNanos || res.TraceID != fm.TraceID) {
				t.Fatalf("%v: reply does not echo the frame's SentNanos / TraceID", tag)
			}
			if res.NeedKeyframe != rules[out].keyframe {
				t.Fatalf("%v: row %d replied keyframe=%v, table says %v", tag, out, res.NeedKeyframe, rules[out].keyframe)
			}
			// State: the session agrees with the model, and expect moved only
			// on a successful decode.
			if ss.needKey != model.desynced || ss.expect != model.expect {
				t.Fatalf("%v: session (needKey %v, expect %d), model (%v, %d)", tag, ss.needKey, ss.expect, model.desynced, model.expect)
			}
			if out != outDecoded && ss.expect != expectBefore {
				t.Fatalf("%v: expect moved %d -> %d on row %d", tag, expectBefore, ss.expect, out)
			}
			// After any desync, the next in-range intact I-frame is accepted
			// and clears it (checked here as: it always decodes and resyncs).
			if in.frame && in.intact && in.index < n && ftype == codec.IFrame && (out != outDecoded || ss.needKey) {
				t.Fatalf("%v: intact in-range I-frame did not resync (row %d)", tag, out)
			}
		}
	}
	for _, k := range []string{"in-order", "keyframe", "gap", "repeat", "out-of-range", "truncated", "bit-flipped", "malformed", "wrong-type", "wire-error"} {
		if kinds[k] == 0 {
			t.Errorf("generator never produced a %s input", k)
		}
	}
	for out := outCorrupt; out <= outDecoded; out++ {
		if rows[out] == 0 {
			t.Errorf("no input landed on table row %d", out)
		}
	}
	if total := sequences * eventsPer; total < 10000 {
		t.Errorf("only %d events", total)
	}
	t.Logf("inputs %v, rows %v", kinds, rows)
}
