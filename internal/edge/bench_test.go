package edge

import (
	"bytes"
	"net"
	"testing"
	"time"

	"dive/internal/codec"
	"dive/internal/world"
)

// The two wire paths a server runs per frame, pinned at 0 B/op, 0 allocs/op
// in ci/alloc_baseline.json (make bench-alloc): reading a frame out of the
// reader-owned buffer and writing a result through the connection-owned one.

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

// BenchmarkWireFrameRead is the server's read path at steady state: Next,
// DecodeFrameMsg and the frame-type sniff over a pre-framed stream of real
// bitstreams (one I-frame, then a P chain), one message per op.
func BenchmarkWireFrameRead(b *testing.B) {
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	clip := world.GenerateClip(p, 18)
	cfg := codec.DefaultConfig(clip.W, clip.H)
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	for i, frame := range clip.Frames {
		ef, err := enc.Encode(frame, codec.EncodeOptions{BaseQP: 14})
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteFrame(&stream, &FrameMsg{Index: i, Bitstream: ef.Data, SentNanos: int64(i), TraceID: 7}); err != nil {
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
// frame's worth of detections through connState.write, i.e. the write lock,
// the deadline and the connection-owned buffer.
func BenchmarkWireResultWrite(b *testing.B) {
	st := &connState{conn: discardConn{}, timeout: time.Second}
	res := ResultMsg{Index: 3, SentNanos: 12345, ServerMs: 1.5, TraceID: 7, Detections: make([]WireDetection, 12)}
	for i := range res.Detections {
		res.Detections[i] = WireDetection{Class: 1 + i%2, MinX: 10 * i, MinY: 5 * i, MaxX: 10*i + 24, MaxY: 5*i + 16, Score: 0.9}
	}
	if err := st.write(&res); err != nil { // the buffer reaches its size
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Index = i
		if err := st.write(&res); err != nil {
			b.Fatal(err)
		}
	}
}
