package edge

import (
	"bytes"
	"io"
	"testing"

	"dive/internal/world"
)

// The decoders are the trust boundary of the live link: every byte arriving
// from the network flows through DecodeHello / DecodeFrameMsg /
// DecodeResultMsg and the MsgReader framing loop. The fuzz targets assert
// the robustness contract: arbitrary input may be rejected with a typed
// error but must never panic, hang, or over-allocate — and anything that
// decodes cleanly must re-encode to a semantically identical message.

func FuzzHello(f *testing.F) {
	f.Add(Hello{Profile: "nuScenes", Seed: 42, Duration: 8}.appendPayload(nil))
	f.Add(Hello{Profile: "KITTI", Seed: -1, Duration: 0.25, Resume: true, FirstFrame: 7}.appendPayload(nil))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			if !IsRecoverable(err) {
				t.Fatalf("decode error is not a typed wire error: %v", err)
			}
			return
		}
		// Decoded OK: the struct must satisfy the documented invariants and
		// re-encode losslessly.
		if !(h.Duration >= 0 && h.Duration <= world.MaxClipDuration) || h.FirstFrame < 0 || h.FirstFrame > maxFrameIndex {
			t.Fatalf("decoded hello violates invariants: %+v", h)
		}
		h2, err := DecodeHello(h.appendPayload(nil))
		if err != nil {
			t.Fatalf("re-decode of re-encoded hello failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("hello not stable under re-encode: %+v vs %+v", h, h2)
		}
	})
}

func FuzzFrameMsg(f *testing.F) {
	f.Add((&FrameMsg{Index: 0, Bitstream: []byte{1, 2, 3}}).appendPayload(nil))
	f.Add((&FrameMsg{Index: 9, SentNanos: 1, TraceID: 2, SpanID: 3}).appendPayload(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeFrameMsg(data)
		if err != nil {
			if !IsRecoverable(err) {
				t.Fatalf("decode error is not a typed wire error: %v", err)
			}
			return
		}
		if m.Index < 0 || m.Index > maxFrameIndex {
			t.Fatalf("decoded frame index out of range: %d", m.Index)
		}
		m2, err := DecodeFrameMsg(m.appendPayload(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Index != m.Index || m2.SentNanos != m.SentNanos ||
			m2.TraceID != m.TraceID || m2.SpanID != m.SpanID ||
			!bytes.Equal(m2.Bitstream, m.Bitstream) {
			t.Fatalf("frame not stable under re-encode")
		}
	})
}

func FuzzResultMsg(f *testing.F) {
	f.Add((&ResultMsg{Index: 1, Detections: []WireDetection{{Class: 1, Score: 0.5}}}).appendPayload(nil))
	f.Add((&ResultMsg{Index: -1, Err: "nack", NeedKeyframe: true}).appendPayload(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeResultMsg(data)
		if err != nil {
			if !IsRecoverable(err) {
				t.Fatalf("decode error is not a typed wire error: %v", err)
			}
			return
		}
		if m.Index < -1 || m.Index > maxFrameIndex || len(m.Detections) > maxDetections {
			t.Fatalf("decoded result violates invariants: %+v", m)
		}
	})
}

func FuzzRedirectMsg(f *testing.F) {
	f.Add(Redirect{Addr: "127.0.0.1:7061", Reason: "drain"}.appendPayload(nil))
	f.Add(Redirect{Addr: "edge-2:9000", Reason: ""}.appendPayload(nil))
	// Malformed shapes the client must reject, never dial: empty addr,
	// truncated strings, oversized length claims, wrong version.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 0}) // version + empty addr
	f.Add([]byte{1, 0xFF, 0xFF, 'x'})
	f.Add([]byte{2, 0, 1, 'a', 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := DecodeRedirect(data)
		if err != nil {
			if !IsRecoverable(err) {
				t.Fatalf("decode error is not a typed wire error: %v", err)
			}
			return
		}
		// Decoded OK: the documented invariants hold and the message is
		// stable under re-encode.
		if rd.Addr == "" {
			t.Fatalf("decoder accepted a redirect with empty address")
		}
		if len(rd.Addr) > maxStringLen || len(rd.Reason) > maxStringLen {
			t.Fatalf("decoded redirect exceeds string cap: %+v", rd)
		}
		rd2, err := DecodeRedirect(rd.appendPayload(nil))
		if err != nil {
			t.Fatalf("re-decode of re-encoded redirect failed: %v", err)
		}
		if rd2 != rd {
			t.Fatalf("redirect not stable under re-encode: %+v vs %+v", rd, rd2)
		}
	})
}

// FuzzMsgReader feeds arbitrary byte streams through the framing loop the
// server runs on every connection: it must terminate (EOF or error) without
// panicking, any payload it yields must be safe to hand to the decoders, and
// a decoded frame — which aliases the reader's buffer — must still read the
// same right up to the next Next.
func FuzzMsgReader(f *testing.F) {
	var seed bytes.Buffer
	WriteHello(&seed, Hello{Profile: "nuScenes", Seed: 1, Duration: 1})
	WriteFrame(&seed, &FrameMsg{Index: 0, Bitstream: []byte{5, 6}})
	writeRedirect(&seed, Redirect{Addr: "127.0.0.1:1", Reason: "drain"})
	f.Add(seed.Bytes())
	f.Add([]byte("Dv"))
	f.Add([]byte{'D', 'v', MsgFrame, 0, 0, 0, 2, 1, 2, 0, 0, 0, 0})
	f.Add([]byte{'D', 'D', 'v', 'D'})
	f.Fuzz(func(t *testing.T, data []byte) {
		mr := NewMsgReader(bytes.NewReader(data))
		var held FrameMsg // the last decoded frame, and a copy taken at decode time
		var heldCopy []byte
		for i := 0; i < 64; i++ { // bounded: each Next consumes ≥1 byte or errors
			if !bytes.Equal(held.Bitstream, heldCopy) {
				t.Fatalf("frame %d's bitstream changed before the next Next", held.Index)
			}
			held, heldCopy = FrameMsg{}, nil
			typ, payload, err := mr.Next()
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			if err != nil {
				if !IsRecoverable(err) {
					t.Fatalf("unexpected error class: %v", err)
				}
				continue
			}
			switch typ {
			case MsgHello:
				DecodeHello(payload)
			case MsgFrame:
				if fm, err := DecodeFrameMsg(payload); err == nil {
					held, heldCopy = fm, append([]byte(nil), fm.Bitstream...)
				}
				// The other decoders copy what they keep: they must leave the
				// payload, and so the frame aliasing it, alone.
				DecodeHello(payload)
				DecodeResultMsg(payload)
				DecodeRedirect(payload)
			case MsgResult:
				DecodeResultMsg(payload)
			case MsgRedirect:
				DecodeRedirect(payload)
			default:
				t.Fatalf("reader yielded unknown type %d", typ)
			}
		}
	})
}
