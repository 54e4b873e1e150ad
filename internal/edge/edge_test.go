package edge

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/world"
)

func TestWireConversionRoundTrip(t *testing.T) {
	dets := []detect.Detection{
		{Class: world.ClassCar, Box: imgx.NewRect(10, 20, 30, 40), Score: 0.9},
		{Class: world.ClassPedestrian, Box: imgx.NewRect(1, 2, 3, 4), Score: 0.5},
	}
	back := FromWire(ToWire(dets))
	if len(back) != 2 {
		t.Fatal("count mismatch")
	}
	for i := range dets {
		if back[i].Class != dets[i].Class || back[i].Box != dets[i].Box || back[i].Score != dets[i].Score {
			t.Errorf("detection %d mismatch: %+v vs %+v", i, back[i], dets[i])
		}
	}
}

// startServer boots a server on loopback and returns its address plus a
// shutdown func that asserts Serve exits cleanly.
func startServer(t *testing.T, srv *Server) (string, func()) {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	return addr.String(), func() {
		srv.Kill()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	}
}

// testSession runs the client handshake (consuming the server's ack) and
// returns the conn plus a MsgReader.
func testSession(t *testing.T, addr string, hello Hello) (net.Conn, *MsgReader) {
	t.Helper()
	conn, mr, res, err := Handshake(addr, hello, 20*time.Second)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if res.Index != -1 || !res.NeedKeyframe {
		t.Fatalf("handshake ack = %+v, want Index=-1 NeedKeyframe", res)
	}
	return conn, mr
}

func readResult(t *testing.T, conn net.Conn, mr *MsgReader) ResultMsg {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	typ, payload, err := mr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgResult {
		t.Fatalf("got message type %d, want result", typ)
	}
	res, err := DecodeResultMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerSession runs a full live session over loopback TCP: encode a
// tiny clip with the codec, stream it, check detections come back.
func TestServerSession(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	const seed = 99
	const duration = 1.0
	p := world.NuScenesLike()
	p.ClipDuration = duration
	clip := world.GenerateClip(p, seed)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		t.Fatal(err)
	}

	conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: seed, Duration: duration})
	defer conn.Close()

	sawDets := false
	for i, frame := range clip.Frames {
		ef, err := enc.Encode(frame, codec.EncodeOptions{BaseQP: 14})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(conn, &FrameMsg{Index: i, Bitstream: ef.Data, SentNanos: time.Now().UnixNano()}); err != nil {
			t.Fatal(err)
		}
		res := readResult(t, conn, mr)
		if res.Err != "" {
			t.Fatalf("frame %d: server error %s", i, res.Err)
		}
		if res.Index != i {
			t.Fatalf("result index %d, want %d", res.Index, i)
		}
		if len(res.Detections) > 0 {
			sawDets = true
		}
	}
	if !sawDets {
		t.Error("server returned no detections for a high-quality stream")
	}

	// Out-of-range index reports an error without killing the session.
	if err := WriteFrame(conn, &FrameMsg{Index: 10000, Bitstream: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if res := readResult(t, conn, mr); res.Err == "" {
		t.Error("expected error for out-of-range index")
	}
}

// TestServerNacksCorruptFrame flips bytes inside a frame message: the server
// must answer with a keyframe NACK and recover once an intra frame arrives.
func TestServerNacksCorruptFrame(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	p := world.NuScenesLike()
	p.ClipDuration = 1
	clip := world.GenerateClip(p, 7)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		t.Fatal(err)
	}
	conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 7, Duration: 1})
	defer conn.Close()

	// Frame 0 clean.
	ef, _ := enc.Encode(clip.Frames[0], codec.EncodeOptions{BaseQP: 16})
	WriteFrame(conn, &FrameMsg{Index: 0, Bitstream: ef.Data})
	if res := readResult(t, conn, mr); res.Err != "" {
		t.Fatalf("clean frame rejected: %s", res.Err)
	}

	// Frame 1 corrupted on the wire: envelope CRC must catch it.
	ef, _ = enc.Encode(clip.Frames[1], codec.EncodeOptions{BaseQP: 16})
	var raw []byte
	{
		buf := &collector{}
		WriteFrame(buf, &FrameMsg{Index: 1, Bitstream: ef.Data})
		raw = buf.b
	}
	raw[len(raw)/2] ^= 0x5A
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	res := readResult(t, conn, mr)
	if !res.NeedKeyframe {
		t.Fatalf("corrupt frame answered without NeedKeyframe: %+v", res)
	}

	// A P-frame now gets NACKed — the decoder is marked desynced.
	ef, _ = enc.Encode(clip.Frames[2], codec.EncodeOptions{BaseQP: 16})
	WriteFrame(conn, &FrameMsg{Index: 2, Bitstream: ef.Data})
	res = readResult(t, conn, mr)
	if !res.NeedKeyframe || res.Err == "" {
		t.Fatalf("P-frame after desync accepted: %+v", res)
	}

	// An intra frame restores the session.
	ef, _ = enc.Encode(clip.Frames[3], codec.EncodeOptions{BaseQP: 16, ForceIFrame: true})
	WriteFrame(conn, &FrameMsg{Index: 3, Bitstream: ef.Data})
	res = readResult(t, conn, mr)
	if res.Err != "" || res.NeedKeyframe {
		t.Fatalf("keyframe did not resync: %+v", res)
	}
}

// collector is a minimal io.Writer for capturing framed bytes.
type collector struct{ b []byte }

func (c *collector) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

// TestServerDetectsFrameGap skips an index: the decoder reference is stale,
// so the server must NACK P-frames until a keyframe lands.
func TestServerDetectsFrameGap(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	p := world.NuScenesLike()
	p.ClipDuration = 1
	clip := world.GenerateClip(p, 11)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		t.Fatal(err)
	}
	conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 11, Duration: 1})
	defer conn.Close()

	ef, _ := enc.Encode(clip.Frames[0], codec.EncodeOptions{BaseQP: 16})
	WriteFrame(conn, &FrameMsg{Index: 0, Bitstream: ef.Data})
	readResult(t, conn, mr)

	// Encode 1 and 2 but only send 2 (simulating a dropped frame): P-frame
	// at an unexpected index must be refused.
	enc.Encode(clip.Frames[1], codec.EncodeOptions{BaseQP: 16})
	ef, _ = enc.Encode(clip.Frames[2], codec.EncodeOptions{BaseQP: 16})
	WriteFrame(conn, &FrameMsg{Index: 2, Bitstream: ef.Data})
	res := readResult(t, conn, mr)
	if !res.NeedKeyframe {
		t.Fatalf("gap P-frame accepted: %+v", res)
	}

	// Keyframe at the gap index is accepted and resyncs.
	ef, _ = enc.Encode(clip.Frames[3], codec.EncodeOptions{BaseQP: 16, ForceIFrame: true})
	WriteFrame(conn, &FrameMsg{Index: 3, Bitstream: ef.Data})
	res = readResult(t, conn, mr)
	if res.Err != "" || res.NeedKeyframe {
		t.Fatalf("keyframe after gap rejected: %+v", res)
	}
}

// TestServerResume reconnects mid-clip with Hello.Resume: the second session
// must start at FirstFrame and demand an intra frame.
func TestServerResume(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	p := world.NuScenesLike()
	p.ClipDuration = 1
	clip := world.GenerateClip(p, 21)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		t.Fatal(err)
	}
	conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 21, Duration: 1})
	ef, _ := enc.Encode(clip.Frames[0], codec.EncodeOptions{BaseQP: 16})
	WriteFrame(conn, &FrameMsg{Index: 0, Bitstream: ef.Data})
	readResult(t, conn, mr)
	conn.Close() // mid-stream disconnect

	// Reconnect, resuming at frame 4. P-frame first: refused. Keyframe: OK.
	conn2, mr2 := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 21, Duration: 1, Resume: true, FirstFrame: 4})
	defer conn2.Close()
	for i := 1; i <= 3; i++ {
		enc.Encode(clip.Frames[i], codec.EncodeOptions{BaseQP: 16})
	}
	ef, _ = enc.Encode(clip.Frames[4], codec.EncodeOptions{BaseQP: 16})
	WriteFrame(conn2, &FrameMsg{Index: 4, Bitstream: ef.Data})
	if res := readResult(t, conn2, mr2); !res.NeedKeyframe {
		t.Fatalf("resumed session accepted P-frame: %+v", res)
	}
	ef, _ = enc.Encode(clip.Frames[5], codec.EncodeOptions{BaseQP: 16, ForceIFrame: true})
	WriteFrame(conn2, &FrameMsg{Index: 5, Bitstream: ef.Data})
	if res := readResult(t, conn2, mr2); res.Err != "" || res.NeedKeyframe {
		t.Fatalf("resume keyframe rejected: %+v", res)
	}

	// Resume beyond the clip end is refused at handshake.
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	WriteHello(conn3, Hello{Profile: "nuScenes", Seed: 21, Duration: 1, Resume: true, FirstFrame: 100000})
	mr3 := NewMsgReader(conn3)
	if res := readResult(t, conn3, mr3); res.Err == "" {
		t.Error("resume beyond clip end accepted")
	}
}

func TestServerRejectsBadProfile(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteHello(conn, Hello{Profile: "nope", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	mr := NewMsgReader(conn)
	if res := readResult(t, conn, mr); res.Err == "" {
		t.Error("expected handshake error")
	}
}

// TestServerSurvivesMalformedHandshake sends garbage first: the session dies
// but the server keeps serving new connections.
func TestServerSurvivesMalformedHandshake(t *testing.T) {
	srv := NewServer()
	srv.ReadTimeout = 2 * time.Second
	addr, stop := startServer(t, srv)
	defer stop()

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad.Write([]byte{0xde, 0xad, 0xbe, 0xef})
	bad.Close()

	// A well-formed session still works.
	conn, _ := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 5, Duration: 0.5})
	conn.Close()
}

func TestServeBeforeListen(t *testing.T) {
	srv := NewServer()
	if err := srv.Serve(); err == nil {
		t.Error("Serve before Listen should fail")
	}
	srv.Kill() // stopping an unbound server is a no-op
}

// TestGracefulShutdown verifies Shutdown lets an in-flight session finish
// its current frame and then stops accepting.
func TestGracefulShutdown(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	conn, mr := testSession(t, addr.String(), Hello{Profile: "nuScenes", Seed: 31, Duration: 0.5})
	defer conn.Close()

	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	clip := world.GenerateClip(p, 31)
	enc, _ := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	ef, _ := enc.Encode(clip.Frames[0], codec.EncodeOptions{BaseQP: 16})
	WriteFrame(conn, &FrameMsg{Index: 0, Bitstream: ef.Data})
	if res := readResult(t, conn, mr); res.Err != "" {
		t.Fatalf("pre-shutdown frame failed: %s", res.Err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(300 * time.Millisecond) }()

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// New dials are refused or immediately closed.
	if c2, err := net.Dial("tcp", addr.String()); err == nil {
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		one := make([]byte, 1)
		if _, rerr := c2.Read(one); rerr == nil {
			t.Error("server accepted a session after Shutdown")
		}
		c2.Close()
	}
}

// TestShutdownDrainsStreamingSession streams frames as fast as the server
// answers them while Shutdown runs: the per-read deadline must not outlive
// the drain deadline, so the session ends by the drain path (a clean exit,
// nothing logged) before grace, not by the force-close that follows it.
func TestShutdownDrainsStreamingSession(t *testing.T) {
	srv := NewServer()
	var mu sync.Mutex
	var sessionErrs []string
	srv.Logf = func(format string, args ...interface{}) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "session error") {
			mu.Lock()
			sessionErrs = append(sessionErrs, line)
			mu.Unlock()
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	conn, mr := testSession(t, addr.String(), Hello{Profile: "nuScenes", Seed: 31, Duration: 0.5})
	defer conn.Close()
	// An out-of-range index costs the server no decode and keeps the
	// session open: each one is read, answered and counted.
	frame := &FrameMsg{Index: 1 << 20, Bitstream: []byte{1}}
	if err := WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	if res := readResult(t, conn, mr); res.Err == "" {
		t.Fatal("out-of-range frame answered without an error")
	}
	streamed := make(chan int, 1)
	go func() {
		n := 0
		for ; WriteFrame(conn, frame) == nil; n++ {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := mr.Next(); err != nil {
				break
			}
		}
		streamed <- n
	}()

	const grace = 200 * time.Millisecond
	start := time.Now()
	if err := srv.Shutdown(grace); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	took := time.Since(start)
	if n := <-streamed; n < 2 {
		t.Fatalf("client streamed %d frames, want a stream running into the drain", n)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after Shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sessionErrs) > 0 || took >= grace+500*time.Millisecond {
		t.Errorf("streaming session outlived the drain: Shutdown took %v (grace %v), logged %q", took, grace, sessionErrs)
	}
}

// TestConcurrentSessions exercises the server's goroutine-per-connection
// path: several agents stream different clips simultaneously.
func TestConcurrentSessions(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	const sessions = 3
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		seed := int64(200 + s)
		go func(seed int64) {
			errs <- runSession(addr, seed)
		}(seed)
	}
	for s := 0; s < sessions; s++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("session timed out")
		}
	}
}

// TestClipCacheReuse opens two sessions with identical parameters and
// checks the reference clip is rendered once.
func TestClipCacheReuse(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	for i := 0; i < 2; i++ {
		if err := runSession(addr, 777); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	srv.clipMu.Lock()
	n := len(srv.clips)
	srv.clipMu.Unlock()
	if n != 1 {
		t.Errorf("clip cache holds %d entries after identical sessions, want 1", n)
	}
}

// runSession streams a short clip and validates every reply.
func runSession(addr string, seed int64) error {
	p := world.NuScenesLike()
	p.ClipDuration = 0.5
	clip := world.GenerateClip(p, seed)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		return err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := WriteHello(conn, Hello{Profile: "nuScenes", Seed: seed, Duration: 0.5}); err != nil {
		return err
	}
	mr := NewMsgReader(conn)
	readRes := func() (ResultMsg, error) {
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		typ, payload, err := mr.Next()
		if err != nil {
			return ResultMsg{}, err
		}
		if typ != MsgResult {
			return ResultMsg{}, fmt.Errorf("message type %d", typ)
		}
		return DecodeResultMsg(payload)
	}
	ack, err := readRes()
	if err != nil {
		return err
	}
	if ack.Err != "" {
		return fmt.Errorf("handshake: %s", ack.Err)
	}
	for i, frame := range clip.Frames {
		ef, err := enc.Encode(frame, codec.EncodeOptions{BaseQP: 16})
		if err != nil {
			return err
		}
		if err := WriteFrame(conn, &FrameMsg{Index: i, Bitstream: ef.Data}); err != nil {
			return err
		}
		res, err := readRes()
		if err != nil {
			return err
		}
		if res.Err != "" {
			return fmt.Errorf("frame %d: %s", i, res.Err)
		}
		if res.Index != i {
			return fmt.Errorf("frame %d: got index %d", i, res.Index)
		}
	}
	return nil
}

func TestLogfAndClosedDetection(t *testing.T) {
	srv := NewServer()
	var lines []string
	srv.Logf = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	srv.logf("hello %d", 7)
	if len(lines) != 1 || lines[0] != "hello 7" {
		t.Errorf("logf lines = %v", lines)
	}
	// Closing the listener makes Serve return nil (clean shutdown), which
	// exercises the closed-connection error classification.
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	// Open and drop a connection with a garbage handshake; the session
	// handler must log, not crash.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xde, 0xad})
	conn.Close()
	time.Sleep(50 * time.Millisecond)
	srv.Kill()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after Kill: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}
}

// TestConcurrentHellosRenderOnce: sessions that open at once on a clip the
// server has not rendered yet wait for one render instead of each running
// their own.
func TestConcurrentHellosRenderOnce(t *testing.T) {
	srv := NewServer()
	var mu sync.Mutex
	renders := 0
	srv.Logf = func(format string, args ...interface{}) {
		if strings.HasPrefix(format, "rendering reference clip") {
			mu.Lock()
			renders++
			mu.Unlock()
		}
	}
	addr, stop := startServer(t, srv)
	defer stop()
	const sessions = 4
	var wg sync.WaitGroup
	conns := make([]net.Conn, sessions)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, _, _, err := Handshake(addr, Hello{Profile: "nuScenes", Seed: 31, Duration: 0.5}, 20*time.Second)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			conns[i] = conn
		}(i)
	}
	wg.Wait()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if renders != 1 {
		t.Errorf("%d concurrent Hellos for one clip rendered it %d times, want 1", sessions, renders)
	}
}

// TestInterleavedSessionsMatchDetect runs two sessions on one Server with
// their frames in flight at the same time: the detector is shared and each
// session detects through its own scratch, so every reply must equal Detect
// on the same decoded frame (run it under -race).
func TestInterleavedSessionsMatchDetect(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()
	det := detect.New(detect.DefaultConfig())
	type stream struct {
		seed  int64
		clip  *world.Clip
		enc   *codec.Encoder
		dec   *codec.Decoder
		conn  net.Conn
		mr    *MsgReader
		want  []WireDetection
		total int
	}
	streams := []*stream{{seed: 41}, {seed: 42}}
	for _, s := range streams {
		p := world.NuScenesLike()
		p.ClipDuration = 0.5
		s.clip = world.GenerateClip(p, s.seed)
		cfg := codec.DefaultConfig(s.clip.W, s.clip.H)
		var err error
		if s.enc, err = codec.NewEncoder(cfg); err != nil {
			t.Fatal(err)
		}
		if s.dec, err = codec.NewDecoder(cfg); err != nil {
			t.Fatal(err)
		}
		s.conn, s.mr = testSession(t, addr, Hello{Profile: "nuScenes", Seed: s.seed, Duration: 0.5})
		defer s.conn.Close()
	}
	for i := range streams[0].clip.Frames {
		for _, s := range streams { // both frames are written before either reply is read
			ef, err := s.enc.Encode(s.clip.Frames[i], codec.EncodeOptions{BaseQP: 30})
			if err != nil {
				t.Fatal(err)
			}
			df, err := s.dec.Decode(ef.Data)
			if err != nil {
				t.Fatal(err)
			}
			s.want = ToWire(det.Detect(df.Image, s.clip.Frames[i], s.clip.GT[i], s.seed^int64(i*7919)))
			if err := WriteFrame(s.conn, &FrameMsg{Index: i, Bitstream: ef.Data}); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range streams {
			res := readResult(t, s.conn, s.mr)
			if res.Err != "" || res.Index != i || !slices.Equal(res.Detections, s.want) {
				t.Fatalf("seed %d frame %d: reply %+v, want detections %v", s.seed, i, res, s.want)
			}
			s.total += len(s.want)
		}
	}
	for _, s := range streams {
		if s.total == 0 {
			t.Errorf("seed %d: no detections in the whole clip, nothing compared", s.seed)
		}
	}
}
