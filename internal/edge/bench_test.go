package edge

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"dive/internal/codec"
	"dive/internal/world"
)

// The server's per-frame paths, each pinned at 0 allocs/op in
// ci/alloc_baseline.json (make bench-alloc): reading a frame out of the
// reader-owned buffer, writing a result or a frame through a pooled envelope,
// and the whole of what a session runs on one frame.

// loopReader replays one framed stream forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// benchClip renders a short clip and encodes it: one I-frame, then a P chain.
func benchClip(b *testing.B) (*world.Clip, [][]byte) {
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	clip := world.GenerateClip(p, 18)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		b.Fatal(err)
	}
	bits := make([][]byte, len(clip.Frames))
	for i, frame := range clip.Frames {
		ef, err := enc.Encode(frame, codec.EncodeOptions{BaseQP: 14})
		if err != nil {
			b.Fatal(err)
		}
		bits[i] = ef.Clone().Data
	}
	return clip, bits
}

// BenchmarkWireFrameRead is the server's read path at steady state: Next,
// DecodeFrameMsg and the frame-type sniff over a pre-framed stream of real
// bitstreams (one I-frame, then a P chain), one message per op.
func BenchmarkWireFrameRead(b *testing.B) {
	clip, bits := benchClip(b)
	var stream bytes.Buffer
	for i, data := range bits {
		if err := WriteFrame(&stream, &FrameMsg{Index: i, Bitstream: data, SentNanos: int64(i), TraceID: 7}); err != nil {
			b.Fatal(err)
		}
	}
	mr := NewMsgReader(&loopReader{data: stream.Bytes()})
	read := func() {
		typ, payload, err := mr.Next()
		if err != nil || typ != MsgFrame {
			b.Fatalf("type %d: %v", typ, err)
		}
		fm, err := DecodeFrameMsg(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.SniffFrameType(fm.Bitstream); err != nil {
			b.Fatal(err)
		}
	}
	for range clip.Frames { // one lap: the reader's buffer reaches the largest message
		read()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// discardConn is a connection whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkWireResultWrite is the server's reply path: a result with a
// frame's worth of detections through WriteResult into a connState, i.e. a
// pooled envelope, the write lock and the deadline.
func BenchmarkWireResultWrite(b *testing.B) {
	st := &connState{conn: discardConn{}, timeout: time.Second}
	res := ResultMsg{Index: 3, SentNanos: 12345, ServerMs: 1.5, TraceID: 7, Detections: make([]WireDetection, 12)}
	for i := range res.Detections {
		res.Detections[i] = WireDetection{Class: 1 + i%2, MinX: 10 * i, MinY: 5 * i, MaxX: 10*i + 24, MaxY: 5*i + 16, Score: 0.9}
	}
	if err := WriteResult(st, &res); err != nil { // a pooled buffer reaches its size
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Index = i
		if err := WriteResult(st, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteFrame is the uplink writer: one P-frame's bitstream through
// WriteFrame, the agent's per-frame upload and the repo benchmark's replay.
func BenchmarkWriteFrame(b *testing.B) {
	_, bits := benchClip(b)
	m := &FrameMsg{Index: 1, Bitstream: bits[1], SentNanos: 12345, TraceID: 7, SpanID: 3}
	if err := WriteFrame(io.Discard, m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Index = i
		if err := WriteFrame(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerFrame is the whole of what a session runs on one read —
// Server.serveFrame: step, decode, detect, count and the reply through a
// connState — over the clip's frames in a loop (one I-frame, then a P
// chain; the wrap back to frame 0 is a gap that the I-frame resyncs), one
// frame per op.
func BenchmarkServerFrame(b *testing.B) {
	clip, bits := benchClip(b)
	payloads := make([][]byte, len(bits))
	for i, data := range bits {
		payloads[i] = (&FrameMsg{Index: i, Bitstream: data, SentNanos: int64(i), TraceID: 7}).appendPayload(nil)
	}
	dec, err := codec.NewDecoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		b.Fatal(err)
	}
	s := NewServer()
	st := &connState{conn: discardConn{}, timeout: time.Second}
	ss := &session{clip: clip, seed: 18, dec: dec, needKey: true}
	m := &sessionMetrics{}
	serve := func(i int) {
		if err := s.serveFrame(st, ss, m, MsgFrame, payloads[i%len(payloads)], nil); err != nil {
			b.Fatal(err)
		}
		if ss.res.Err != "" {
			b.Fatalf("frame %d: %s", i, ss.res.Err)
		}
	}
	for i := range payloads { // one lap: the scratch and the reply reach their size
		serve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}
