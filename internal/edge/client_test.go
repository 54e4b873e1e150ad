package edge

import (
	"fmt"
	"net"
	"testing"
	"time"

	"dive/internal/chaos"
	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/obs"
	"dive/internal/world"
)

// newTestAgent builds a core agent for a clip with its own recorder (so
// journals from concurrent tests don't interleave).
func newTestAgent(t *testing.T, clip *world.Clip, rec *obs.Recorder) *core.Agent {
	t.Helper()
	cfg := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Obs = rec
	cfg.Seed = 5
	agent, err := core.NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

func testClip(t *testing.T, seed int64, duration float64) *world.Clip {
	t.Helper()
	p := world.NuScenesLike()
	p.ClipDuration = duration
	return world.GenerateClip(p, seed)
}

func fastBackoff() BackoffConfig {
	return BackoffConfig{
		Initial: 10 * time.Millisecond, Max: 50 * time.Millisecond,
		MaxAttempts: 5,
	}
}

// TestClientHealthyBaseline streams a clip over a clean loopback link: every
// frame must come back with edge detections, no reconnects, no outages, and
// the ladder must stay on the healthy rung throughout.
func TestClientHealthyBaseline(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()

	clip := testClip(t, 42, 1)
	rec := obs.NewRecorder(256)
	agent := newTestAgent(t, clip, rec)
	client := NewClient(ClientConfig{
		Addr: addr, Profile: "nuScenes", Seed: 42, Duration: 1,
		AckTimeout: 5 * time.Second, Backoff: fastBackoff(), Obs: rec,
	}, agent)

	dets, stats, err := client.Run(clip)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reconnects != 0 || stats.OutageFrames != 0 || stats.FramesSkipped != 0 {
		t.Errorf("healthy run saw failures: %+v", stats)
	}
	if stats.FinalLevel != core.LadderHealthy {
		t.Errorf("ladder ended at %v on a clean link", stats.FinalLevel)
	}
	if stats.FramesUploaded != clip.NumFrames() {
		t.Errorf("uploaded %d of %d frames", stats.FramesUploaded, clip.NumFrames())
	}
	for i, d := range dets {
		if d == nil {
			t.Errorf("frame %d has no detections", i)
		}
	}
	// The journal must carry the ladder fields for doctor grading.
	js := rec.Journal().Snapshot()
	if len(js) != clip.NumFrames() {
		t.Fatalf("journal has %d records, want %d", len(js), clip.NumFrames())
	}
	for _, j := range js {
		if j.DegradeLevel != 0 || j.SkippedSend || j.ReconnectAttempts != 0 {
			t.Errorf("frame %d journaled degradation on a healthy link: %+v", j.Frame, j)
		}
	}
}

// TestClientSurvivesDisconnect cuts the TCP session mid-stream through the
// chaos proxy: the client must reconnect with the resume handshake, cover
// the gap with MOT, and finish with detections for every frame.
func TestClientSurvivesDisconnect(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()
	proxy, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	clip := testClip(t, 43, 1)
	rec := obs.NewRecorder(256)
	agent := newTestAgent(t, clip, rec)
	client := NewClient(ClientConfig{
		Addr: proxy.Addr(), Profile: "nuScenes", Seed: 43, Duration: 1,
		AckTimeout: 2 * time.Second, Backoff: fastBackoff(), Obs: rec,
	}, agent)

	// Cut the live session once the stream is past the handshake and
	// frames are flowing. The poll is a millisecond: the whole clip can
	// finish between two 20 ms polls, and then nothing is cut.
	cutDone := make(chan struct{})
	go func() {
		defer close(cutDone)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if proxy.UpBytes.Load() > 16*1024 && proxy.CutConnections() > 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	dets, stats, err := client.Run(clip)
	<-cutDone
	if err != nil {
		t.Fatalf("run did not survive the cut: %v (stats %+v)", err, stats)
	}
	if stats.Reconnects == 0 {
		t.Error("no reconnect recorded despite the cut")
	}
	for i, d := range dets {
		if d == nil {
			t.Errorf("frame %d left uncovered", i)
		}
	}
	// Reconnect accounting must be journaled on some frame.
	found := false
	for _, j := range rec.Journal().Snapshot() {
		if j.ReconnectAttempts > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no frame journaled the reconnect")
	}
}

// TestClientSurvivesCorruption corrupts one uplink byte: the server NACKs,
// the client forces a keyframe, and the stream completes.
func TestClientSurvivesCorruption(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()
	proxy, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	clip := testClip(t, 44, 1)
	rec := obs.NewRecorder(256)
	agent := newTestAgent(t, clip, rec)
	client := NewClient(ClientConfig{
		Addr: proxy.Addr(), Profile: "nuScenes", Seed: 44, Duration: 1,
		AckTimeout: 2 * time.Second, Backoff: fastBackoff(), Obs: rec,
	}, agent)

	// Corrupt a byte a few KiB into the uplink stream — inside an early
	// frame message, past the handshake.
	go func() {
		time.Sleep(50 * time.Millisecond)
		proxy.CorruptNextUplink(4096)
	}()

	dets, stats, err := client.Run(clip)
	if err != nil {
		t.Fatalf("run did not survive corruption: %v", err)
	}
	if stats.Nacks == 0 && stats.OutageFrames == 0 {
		t.Errorf("corruption left no trace in stats: %+v", stats)
	}
	for i, d := range dets {
		if d == nil {
			t.Errorf("frame %d left uncovered", i)
		}
	}
}

// TestClientMidStreamServerClose shuts the server down while frames are in
// flight: the client must journal the lost frames as outage-tracked, fail
// its reconnect attempts (nothing is listening), and exit with an error
// while preserving the detections it has.
func TestClientMidStreamServerClose(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	clip := testClip(t, 45, 1)
	rec := obs.NewRecorder(256)
	agent := newTestAgent(t, clip, rec)
	client := NewClient(ClientConfig{
		Addr: addr.String(), Profile: "nuScenes", Seed: 45, Duration: 1,
		AckTimeout: 500 * time.Millisecond,
		Backoff: BackoffConfig{
			Initial: 5 * time.Millisecond, Max: 20 * time.Millisecond,
			MaxAttempts: 3,
		},
		Obs: rec,
	}, agent)

	go func() {
		time.Sleep(300 * time.Millisecond)
		srv.Shutdown(100 * time.Millisecond)
	}()

	dets, stats, err := client.Run(clip)
	if err == nil {
		// The stream may have finished before the shutdown landed — only a
		// failed run exercises this path, so demand failure evidence
		// otherwise.
		if stats.Reconnects == 0 && stats.FramesUploaded == clip.NumFrames() {
			t.Skip("stream outran the shutdown; nothing to assert")
		}
	} else {
		// Clean failure: the error is the reconnect exhaustion, not a panic
		// or a hang, and no frame before the close was lost.
		if stats.Reconnects == 0 {
			t.Errorf("no reconnect attempts before giving up: %+v", stats)
		}
	}
	got := 0
	for _, d := range dets {
		if d != nil {
			got++
		}
	}
	if got == 0 {
		t.Error("no detections preserved from before the close")
	}
	// Outage-tracked frames must be journaled.
	outaged := 0
	for _, j := range rec.Journal().Snapshot() {
		if j.Outage {
			outaged++
		}
	}
	if err != nil && stats.OutageFrames > 0 && outaged == 0 {
		t.Error("outage frames in stats but none journaled")
	}
}

// TestClientLastFramesUnacked: the server reads the clip's last frame and
// hangs up with a full window in flight. Nothing is left to stream, and a
// server refuses a resume at the clip's end, so the client must not redial:
// it writes the unacked frames off as outage-tracked and returns cleanly,
// every frame acked or outage-tracked exactly once.
func TestClientLastFramesUnacked(t *testing.T) {
	for _, window := range []int{1, 3} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			clip := testClip(t, 47, 0.5)
			n := clip.NumFrames()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					serveUntilLastFrame(conn, n, window)
				}
			}()
			defer func() { ln.Close(); <-served }()

			rec := obs.NewRecorder(256)
			client := NewClient(ClientConfig{
				Addr: ln.Addr().String(), Profile: "nuScenes", Seed: 47, Duration: 0.5,
				Window: window, AckTimeout: 5 * time.Second, Backoff: fastBackoff(), Obs: rec,
			}, newTestAgent(t, clip, rec))
			_, stats, err := client.Run(clip)
			if err != nil {
				t.Fatalf("run failed at the clip's end: %v (stats %+v)", err, stats)
			}
			if stats.Reconnects != 0 || stats.FramesUploaded != n || stats.OutageFrames != window {
				t.Errorf("stats %+v: want 0 reconnects, %d uploads, %d outage-tracked", stats, n, window)
			}
			js := rec.Journal().Snapshot()
			if len(js) != n {
				t.Fatalf("journal has %d records, want %d", len(js), n)
			}
			for _, j := range js {
				if want := j.Frame >= n-window; j.Outage != want {
					t.Errorf("frame %d: outage-tracked %v, want %v (the server acked frames below %d)", j.Frame, j.Outage, want, n-window)
				}
			}
		})
	}
}

// serveUntilLastFrame is a scripted server for one connection: it accepts a
// fresh session (refusing a resume, as edge.Server does at the clip's end),
// acks each frame once the next window-1 frames have arrived, so the client
// always has a full window in flight, and hangs up on reading frame n-1
// without acking the last window.
func serveUntilLastFrame(conn net.Conn, n, window int) {
	defer conn.Close()
	mr := NewMsgReader(conn)
	_, payload, err := mr.Next()
	if err != nil {
		return
	}
	if hello, err := DecodeHello(payload); err != nil || hello.Resume {
		WriteResult(conn, &ResultMsg{Index: -1, Err: "resume beyond clip end"})
		return
	}
	if WriteResult(conn, &ResultMsg{Index: -1}) != nil {
		return
	}
	for {
		_, payload, err := mr.Next()
		if err != nil {
			return
		}
		m, err := DecodeFrameMsg(payload)
		if err != nil || m.Index == n-1 {
			return
		}
		if ack := m.Index - (window - 1); ack >= 0 && WriteResult(conn, &ResultMsg{Index: ack}) != nil {
			return
		}
	}
}

// TestClientLadderEngagesUnderBlackout throttles and blacks out the link so
// ack deadlines fire repeatedly: the ladder must leave the healthy rung, and
// after the blackout lifts it must recover within the clip.
func TestClientLadderEngagesUnderBlackout(t *testing.T) {
	srv := NewServer()
	addr, stop := startServer(t, srv)
	defer stop()
	proxy, err := chaos.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	clip := testClip(t, 46, 2)
	rec := obs.NewRecorder(512)
	agent := newTestAgent(t, clip, rec)
	client := NewClient(ClientConfig{
		Addr: proxy.Addr(), Profile: "nuScenes", Seed: 46, Duration: 2,
		AckTimeout: 150 * time.Millisecond,
		// Backoff must outlast the blackout's 1 s bound below.
		Backoff: BackoffConfig{
			Initial: 50 * time.Millisecond, Max: 200 * time.Millisecond,
			MaxAttempts: 12,
		},
		Obs: rec,
	}, agent)

	// Black out the proxy mid-stream, keyed to the stream's progress rather
	// than the wall clock, so it cannot land in the clip's last frames. It
	// starts once the ladder's dwell has passed (8 frames journaled, at
	// least one acked) and lifts once the client has failed two redials
	// (three link failures take the health score well below the first rung)
	// or a deadline passes, with most of the clip still to encode.
	reconnects := rec.Counter(obs.MetricClientReconnects)
	blackoutDone := make(chan struct{})
	go func() {
		defer close(blackoutDone)
		waitUntil(5*time.Second, func() bool {
			return proxy.DownBytes.Load() > 0 && len(rec.Journal().Snapshot()) >= 8
		})
		proxy.SetBlackout(true)
		waitUntil(time.Second, func() bool { return reconnects.Value() >= 3 })
		proxy.SetBlackout(false)
	}()

	dets, stats, err := client.Run(clip)
	<-blackoutDone
	if err != nil {
		t.Fatalf("run did not survive the blackout: %v (stats %+v)", err, stats)
	}
	for i, d := range dets {
		if d == nil {
			t.Errorf("frame %d left uncovered", i)
		}
	}
	// The journal must show the ladder engaging (some frame encoded under
	// a degraded level) — and the final frames healthy again.
	js := rec.Journal().Snapshot()
	engaged := false
	for _, j := range js {
		if j.DegradeLevel > 0 {
			engaged = true
			break
		}
	}
	if !engaged && stats.OutageFrames > 0 {
		t.Error("outages occurred but the ladder never engaged")
	}
	if stats.Reconnects == 0 {
		t.Errorf("the blackout never reached the session (stats %+v)", stats)
	}
}

// waitUntil polls cond every millisecond until it holds or d has passed.
func waitUntil(d time.Duration, cond func() bool) {
	for deadline := time.Now().Add(d); !cond() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// TestResultAckAllocs: a result ack, through awaitAck's deadline and
// handleAck, allocates only the detections the agent keeps (FromWire's
// slice).
func TestResultAckAllocs(t *testing.T) {
	c := NewClient(ClientConfig{Profile: "nuScenes", Seed: 3}, newTestAgent(t, testClip(t, 3, 0.2), nil))
	c.acks = make(chan ackEvent, 1)
	dets := make([][]detect.Detection, 1)
	fr := &core.FrameResult{}
	ev := ackEvent{kind: ackResult, res: ResultMsg{Index: 0, Detections: make([]WireDetection, 3)}}
	ack := func() {
		c.inflight = append(c.inflight, inflightFrame{idx: 0, sentAt: time.Now(), fr: fr})
		c.acks <- ev
		if err := c.awaitAck(dets); err != nil || len(c.inflight) != 0 || len(dets[0]) != 3 {
			t.Fatalf("ack not taken: err %v, in flight %d, detections %d", err, len(c.inflight), len(dets[0]))
		}
	}
	ack() // the session's deadline timer and the in-flight slice exist from here
	if n := testing.AllocsPerRun(200, ack); n > 1 {
		t.Errorf("a result ack allocates %.1f objects, want ≤ 1", n)
	}
}
