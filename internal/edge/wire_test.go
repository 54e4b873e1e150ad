package edge

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"dive/internal/world"
)

func TestHelloRoundTrip(t *testing.T) {
	cases := []Hello{
		{Profile: "nuScenes", Seed: 42, Duration: 8},
		{Profile: "KITTI", Seed: -7, Duration: 0.5, Resume: true, FirstFrame: 93},
		{Profile: "", Seed: 0, Duration: 0},
	}
	for _, h := range cases {
		got, err := DecodeHello(h.appendPayload(nil))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Errorf("round trip: got %+v want %+v", got, h)
		}
	}
}

func TestFrameMsgRoundTrip(t *testing.T) {
	m := FrameMsg{
		Index:     17,
		Bitstream: []byte{0x01, 0x02, 0xDD, 0xEE, 0xFF},
		SentNanos: 123456789,
		TraceID:   0xdeadbeef,
		SpanID:    0xfeed,
	}
	got, err := DecodeFrameMsg(m.appendPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != m.Index || got.SentNanos != m.SentNanos ||
		got.TraceID != m.TraceID || got.SpanID != m.SpanID ||
		!bytes.Equal(got.Bitstream, m.Bitstream) {
		t.Errorf("round trip: got %+v want %+v", got, m)
	}
}

func TestResultMsgRoundTrip(t *testing.T) {
	cases := []ResultMsg{
		{Index: 3, Detections: []WireDetection{
			{Class: 1, MinX: 10, MinY: 20, MaxX: 30, MaxY: 40, Score: 0.92},
			{Class: 2, MinX: -1, MinY: 0, MaxX: 5, MaxY: 6, Score: 0.11},
		}, SentNanos: 99, ServerMs: 1.25, TraceID: 7},
		{Index: -1, Err: "corrupt message", NeedKeyframe: true},
		{Index: 0},
	}
	for _, m := range cases {
		got, err := DecodeResultMsg(m.appendPayload(nil))
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got.Index != m.Index || got.Err != m.Err || got.NeedKeyframe != m.NeedKeyframe ||
			got.ServerMs != m.ServerMs || len(got.Detections) != len(m.Detections) {
			t.Errorf("round trip: got %+v want %+v", got, m)
		}
		for i := range m.Detections {
			if got.Detections[i] != m.Detections[i] {
				t.Errorf("detection %d: got %+v want %+v", i, got.Detections[i], m.Detections[i])
			}
		}
	}
}

func TestMsgReaderSequence(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{Profile: "nuScenes", Seed: 1, Duration: 2}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, &FrameMsg{Index: 0, Bitstream: []byte{9, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(&buf, &ResultMsg{Index: 0}); err != nil {
		t.Fatal(err)
	}
	mr := NewMsgReader(&buf)
	for i, want := range []byte{MsgHello, MsgFrame, MsgResult} {
		typ, _, err := mr.Next()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if typ != want {
			t.Fatalf("msg %d: type %d want %d", i, typ, want)
		}
	}
	if _, _, err := mr.Next(); err != io.EOF {
		t.Fatalf("after stream: %v, want io.EOF", err)
	}
}

// TestMsgReaderSurvivesCorruption flips a payload byte mid-stream: the
// damaged message must surface as ErrChecksum and the following message must
// still parse.
func TestMsgReaderSurvivesCorruption(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, &FrameMsg{Index: 1, Bitstream: bytes.Repeat([]byte{0x55}, 64)})
	raw := append([]byte(nil), buf.Bytes()...)
	raw[wireHeaderLen+10] ^= 0xFF // inside the first payload
	var stream bytes.Buffer
	stream.Write(raw)
	WriteFrame(&stream, &FrameMsg{Index: 2, Bitstream: []byte{7}})

	mr := NewMsgReader(&stream)
	_, _, err := mr.Next()
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("first message: %v, want ErrChecksum", err)
	}
	if !IsRecoverable(err) {
		t.Fatal("checksum error not recoverable")
	}
	typ, payload, err := mr.Next()
	if err != nil {
		t.Fatalf("second message after corruption: %v", err)
	}
	if typ != MsgFrame {
		t.Fatalf("type %d", typ)
	}
	fm, err := DecodeFrameMsg(payload)
	if err != nil || fm.Index != 2 {
		t.Fatalf("decoded %+v, %v", fm, err)
	}
}

// TestMsgReaderResyncsAfterGarbage injects raw junk between messages: the
// reader must scan past it to the next magic marker.
func TestMsgReaderResyncsAfterGarbage(t *testing.T) {
	var stream bytes.Buffer
	stream.Write([]byte{0x00, 0xDE, 0xAD, 'D', 'D', 0x01}) // junk incl. lone 'D's
	WriteFrame(&stream, &FrameMsg{Index: 5, Bitstream: []byte{1, 2, 3}})
	mr := NewMsgReader(&stream)
	typ, payload, err := mr.Next()
	if err != nil {
		t.Fatalf("after garbage: %v", err)
	}
	if typ != MsgFrame {
		t.Fatalf("type %d", typ)
	}
	if fm, err := DecodeFrameMsg(payload); err != nil || fm.Index != 5 {
		t.Fatalf("decoded %+v, %v", fm, err)
	}
}

func TestMsgReaderRejectsOversized(t *testing.T) {
	var stream bytes.Buffer
	stream.Write([]byte{'D', 'v', MsgFrame, 0xFF, 0xFF, 0xFF, 0xFF})
	mr := NewMsgReader(&stream)
	_, _, err := mr.Next()
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized length: %v, want ErrTooLarge", err)
	}
	if !IsRecoverable(err) {
		t.Fatal("size-cap error not recoverable")
	}
}

func TestMsgReaderTruncatedMessage(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, &FrameMsg{Index: 1, Bitstream: bytes.Repeat([]byte{3}, 32)})
	raw := buf.Bytes()[:buf.Len()-8] // cut mid-payload
	mr := NewMsgReader(bytes.NewReader(raw))
	_, _, err := mr.Next()
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated message: %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeHello([]byte{9}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short hello: %v", err)
	}
	if _, err := DecodeHello(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty hello: %v", err)
	}
	// Trailing garbage after a valid hello.
	p := append(Hello{Profile: "x"}.appendPayload(nil), 0xAB)
	if _, err := DecodeHello(p); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Unsupported version.
	p = Hello{Profile: "x"}.appendPayload(nil)
	p[0] = 99
	if _, err := DecodeHello(p); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad version: %v", err)
	}
	// A clip duration the server must not render, NaN included.
	for _, d := range []float64{-1, world.MaxClipDuration + 1, math.NaN()} {
		if _, err := DecodeHello(Hello{Profile: "x", Duration: d}.appendPayload(nil)); !errors.Is(err, ErrMalformed) {
			t.Errorf("duration %v: %v", d, err)
		}
	}
	if _, err := DecodeFrameMsg([]byte{1, 2, 3}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short frame: %v", err)
	}
	if _, err := DecodeResultMsg([]byte{0}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short result: %v", err)
	}
	// Claimed bitstream length far beyond the actual payload.
	fm := (&FrameMsg{Index: 1, Bitstream: []byte{1}}).appendPayload(nil)
	fm[28] = 0xFF // bitstream length field high byte
	if _, err := DecodeFrameMsg(fm); !errors.Is(err, ErrMalformed) {
		t.Errorf("length overclaim: %v", err)
	}
}

func TestEncodeStringTruncation(t *testing.T) {
	long := strings.Repeat("e", 4*maxStringLen)
	m := ResultMsg{Index: 1, Err: long}
	got, err := DecodeResultMsg(m.appendPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Err) != maxStringLen {
		t.Errorf("error string len %d, want capped at %d", len(got.Err), maxStringLen)
	}
}

// TestMsgReaderPayloadLifetime pins the documented lifetime: what Next returns
// (and what DecodeFrameMsg aliases out of it) is valid until the following
// Next, which reuses the reader's buffer; and a message larger than every
// earlier one, which makes that buffer grow, still round-trips.
func TestMsgReaderPayloadLifetime(t *testing.T) {
	a := bytes.Repeat([]byte{0xA5}, 100)
	b := bytes.Repeat([]byte{0x3C}, 100)
	big := make([]byte, 100_000) // past the bufio window and every earlier message
	for i := range big {
		big[i] = byte(i * 7)
	}
	var stream bytes.Buffer
	for i, bs := range [][]byte{a, b, big, a} {
		if err := WriteFrame(&stream, &FrameMsg{Index: i, Bitstream: bs}); err != nil {
			t.Fatal(err)
		}
	}
	mr := NewMsgReader(&stream)
	next := func(index int) FrameMsg {
		t.Helper()
		typ, payload, err := mr.Next()
		if err != nil || typ != MsgFrame {
			t.Fatalf("message %d: type %d, %v", index, typ, err)
		}
		fm, err := DecodeFrameMsg(payload)
		if err != nil || fm.Index != index {
			t.Fatalf("message %d: decoded %+v, %v", index, fm, err)
		}
		return fm
	}

	first := next(0)
	if !bytes.Equal(first.Bitstream, a) {
		t.Fatal("message 0 does not round-trip")
	}
	kept := first.Bitstream // an alias, kept past its lifetime
	second := next(1)
	if !bytes.Equal(second.Bitstream, b) {
		t.Fatal("message 1 does not round-trip")
	}
	if bytes.Equal(kept, a) || &kept[0] != &second.Bitstream[0] {
		t.Error("message 0's bitstream survived the next Next: the reader is expected to reuse its buffer")
	}
	if third := next(2); !bytes.Equal(third.Bitstream, big) {
		t.Fatal("a message larger than every earlier one does not round-trip")
	}
	if fourth := next(3); !bytes.Equal(fourth.Bitstream, a) {
		t.Fatal("a small message after the buffer grew does not round-trip")
	}
	if _, _, err := mr.Next(); err != io.EOF {
		t.Fatalf("after stream: %v, want io.EOF", err)
	}
}
