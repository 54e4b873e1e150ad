package edge

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"dive/internal/codec"
	"dive/internal/world"
)

// The server's per-frame paths, one op each: reading a frame out of the
// reader-owned buffer, writing a result or a frame through a pooled envelope,
// and the whole of what a session runs on one frame. Each benchmark below
// times its op; TestWireFrameReadAllocatesNothing and, outside -race builds
// (whose sync.Pool drops items at random), TestWritersAllocateNothing and
// TestServerFrameAllocatesNothing hold the same ops at 0 allocations.

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
func benchClip(tb testing.TB) (*world.Clip, [][]byte) {
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	clip := world.GenerateClip(p, 18)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		tb.Fatal(err)
	}
	bits := make([][]byte, len(clip.Frames))
	for i, frame := range clip.Frames {
		ef, err := enc.Encode(frame, codec.EncodeOptions{BaseQP: 14})
		if err != nil {
			tb.Fatal(err)
		}
		bits[i] = ef.Clone().Data
	}
	return clip, bits
}

// allocFree fails t unless op allocates nothing once warm: over the 200
// calls testing.AllocsPerRun counts after its warm-up call, the
// whole-number mean count must be 0 and runtime.MemStats.TotalAlloc at most
// 64 B a call. The byte bound fails an allocation on only some calls, which
// the truncated count reads as 0. Its 64 B, over 200 calls, leave room for
// a rare allocation made outside op while it runs (one of 5.5 kB was seen
// over 32 calls of a warm encoder).
func allocFree(t *testing.T, name string, op func()) {
	t.Helper()
	const runs = 200
	var before, after runtime.MemStats
	warm := false
	allocs := testing.AllocsPerRun(runs, func() {
		op()
		if !warm {
			warm = true
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; allocs != 0 || b > 64 {
		t.Errorf("%s: %.0f allocs and %d B per op, want 0 and at most 64", name, allocs, b)
	}
}

// wireFrameReadOp returns the server's read path at steady state: Next,
// DecodeFrameMsg and the frame-type sniff over a pre-framed stream of
// benchClip's bitstreams, one message per op. One first lap grows the
// reader's buffer to the largest message.
func wireFrameReadOp(tb testing.TB) func() {
	clip, bits := benchClip(tb)
	var stream bytes.Buffer
	for i, data := range bits {
		if err := WriteFrame(&stream, &FrameMsg{Index: i, Bitstream: data, SentNanos: int64(i), TraceID: 7}); err != nil {
			tb.Fatal(err)
		}
	}
	mr := NewMsgReader(&loopReader{data: stream.Bytes()})
	read := func() {
		typ, payload, err := mr.Next()
		if err != nil || typ != MsgFrame {
			tb.Fatalf("type %d: %v", typ, err)
		}
		fm, err := DecodeFrameMsg(payload)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := codec.SniffFrameType(fm.Bitstream); err != nil {
			tb.Fatal(err)
		}
	}
	for range clip.Frames {
		read()
	}
	return read
}

func BenchmarkWireFrameRead(b *testing.B) {
	op := wireFrameReadOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestWireFrameReadAllocatesNothing holds BenchmarkWireFrameRead's op at 0
// allocations: a frame is read out of the MsgReader's own buffer.
func TestWireFrameReadAllocatesNothing(t *testing.T) {
	allocFree(t, "frame read", wireFrameReadOp(t))
}

// discardConn is a connection whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// resultWriteOp returns the server's reply path: a result with a frame's
// worth of detections through WriteResult into a connState, i.e. a pooled
// envelope, the write lock and the deadline. One first write brings a
// pooled buffer to its size.
func resultWriteOp(tb testing.TB) func() {
	st := &connState{conn: discardConn{}, timeout: time.Second}
	res := ResultMsg{Index: 3, SentNanos: 12345, ServerMs: 1.5, TraceID: 7, Detections: make([]WireDetection, 12)}
	for i := range res.Detections {
		res.Detections[i] = WireDetection{Class: 1 + i%2, MinX: 10 * i, MinY: 5 * i, MaxX: 10*i + 24, MaxY: 5*i + 16, Score: 0.9}
	}
	op := func() {
		if err := WriteResult(st, &res); err != nil {
			tb.Fatal(err)
		}
		res.Index++
	}
	op()
	return op
}

func BenchmarkWireResultWrite(b *testing.B) {
	op := resultWriteOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// writeFrameOp returns the uplink writer: one P-frame's bitstream through
// WriteFrame, the agent's per-frame upload and the repo benchmark's replay.
func writeFrameOp(tb testing.TB) func() {
	_, bits := benchClip(tb)
	m := &FrameMsg{Index: 1, Bitstream: bits[1], SentNanos: 12345, TraceID: 7, SpanID: 3}
	op := func() {
		if err := WriteFrame(io.Discard, m); err != nil {
			tb.Fatal(err)
		}
		m.Index++
	}
	op()
	return op
}

func BenchmarkWriteFrame(b *testing.B) {
	op := writeFrameOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// serverFrameOp returns the whole of what a session runs on one read —
// Server.serveFrame: step, decode, detect, count and the reply through a
// connState — over the clip's frames in a loop (one I-frame, then a P
// chain; the wrap back to frame 0 is a gap that the I-frame resyncs), one
// frame per op. One first lap brings the scratch and the reply to their
// size.
func serverFrameOp(tb testing.TB) func() {
	clip, bits := benchClip(tb)
	payloads := make([][]byte, len(bits))
	for i, data := range bits {
		payloads[i] = (&FrameMsg{Index: i, Bitstream: data, SentNanos: int64(i), TraceID: 7}).appendPayload(nil)
	}
	dec, err := codec.NewDecoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		tb.Fatal(err)
	}
	s := NewServer()
	st := &connState{conn: discardConn{}, timeout: time.Second}
	ss := &session{clip: clip, seed: 18, dec: dec, needKey: true}
	m := &sessionMetrics{}
	i := 0
	serve := func() {
		if err := s.serveFrame(st, ss, m, MsgFrame, payloads[i%len(payloads)], nil); err != nil {
			tb.Fatal(err)
		}
		if ss.res.Err != "" {
			tb.Fatalf("frame %d: %s", i, ss.res.Err)
		}
		i++
	}
	for range payloads {
		serve()
	}
	return serve
}

func BenchmarkServerFrame(b *testing.B) {
	op := serverFrameOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
