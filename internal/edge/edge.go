// Package edge implements the edge-server side of the live demo: a CRC-framed
// binary protocol over TCP through which an agent streams DiVE bitstreams and
// the server returns detections, the hardened server loop itself, and the
// resilient agent-side client (client.go).
//
// The demo's "DNN" is the same simulated detector the experiments use. It
// needs the pristine frame to measure compression damage, so agent and
// server share the deterministic benchmark world: the handshake carries the
// generation seed and profile, the server renders the identical clip
// locally, and only the encoded bitstream crosses the wire — exactly the
// bytes a real deployment would ship.
//
// Failure is a first-class input here (see wire.go): every message is CRC
// framed, reads and writes carry deadlines, a corrupt or malformed frame is
// NACKed with a keyframe request instead of killing the session, frame-index
// gaps force decoder resync, and a reconnecting agent resumes mid-clip with
// the Resume handshake.
package edge

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/obs"
	"dive/internal/world"
)

// Hello opens a session: it tells the server which synthetic clip the agent
// is streaming so the server can reconstruct ground truth locally. A
// reconnecting agent sets Resume and FirstFrame; the server then expects the
// stream to restart at that frame with an intra frame (its decoder is
// fresh).
type Hello struct {
	Profile  string // "nuScenes", "RobotCar" or "KITTI"
	Seed     int64
	Duration float64 // seconds
	// Resume marks a mid-clip reconnect after a link failure.
	Resume bool
	// FirstFrame is the index the resumed stream starts at.
	FirstFrame int
}

// FrameMsg carries one encoded frame. TraceID/SpanID propagate the
// agent-minted trace context across the wire so server-side decode/detect
// spans stitch into the same end-to-end trace as the agent's encode spans
// (zero when the agent runs without telemetry). Integrity comes from the
// envelope CRC (wire.go), which covers the whole payload including the
// bitstream.
type FrameMsg struct {
	Index     int
	Bitstream []byte
	SentNanos int64 // agent clock, echoed back for RTT measurement
	TraceID   uint64
	SpanID    uint64 // the agent-side parent span of the server's work
}

// WireDetection is a transport-friendly detection.
type WireDetection struct {
	Class                  int
	MinX, MinY, MaxX, MaxY int
	Score                  float64
}

// ResultMsg returns the detections for one frame, or a NACK. TraceID echoes
// the FrameMsg trace so the agent can attribute the ack to its frame trace.
// NeedKeyframe asks the agent to intra-code its next frame: the server
// decoder lost sync (corrupt message, frame gap, failed decode or a fresh
// resume). Index is -1 on session-level messages (handshake ack, corrupt
// NACKs whose frame index is unknown).
type ResultMsg struct {
	Index        int
	Detections   []WireDetection
	SentNanos    int64 // echoed from FrameMsg
	ServerMs     float64
	Err          string
	TraceID      uint64
	NeedKeyframe bool
}

// ToWire converts detections for transport.
func ToWire(dets []detect.Detection) []WireDetection {
	out := make([]WireDetection, 0, len(dets))
	for _, d := range dets {
		out = append(out, WireDetection{
			Class: int(d.Class),
			MinX:  d.Box.MinX, MinY: d.Box.MinY,
			MaxX: d.Box.MaxX, MaxY: d.Box.MaxY,
			Score: d.Score,
		})
	}
	return out
}

// FromWire converts transported detections back.
func FromWire(ws []WireDetection) []detect.Detection {
	out := make([]detect.Detection, 0, len(ws))
	for _, w := range ws {
		out = append(out, detect.Detection{
			Class: world.Class(w.Class),
			Box: imgx.Rect{
				MinX: w.MinX, MinY: w.MinY,
				MaxX: w.MaxX, MaxY: w.MaxY,
			},
			Score: w.Score,
		})
	}
	return out
}

// ProbeProfile is the reserved Hello profile of cluster health probes: the
// server acks the handshake and closes without creating session state.
const ProbeProfile = "probe"

// profileByName resolves a Hello profile.
func profileByName(name string) (world.Profile, error) {
	switch name {
	case "nuScenes":
		return world.NuScenesLike(), nil
	case "RobotCar":
		return world.RobotCarLike(), nil
	case "KITTI":
		return world.KITTILike(), nil
	default:
		return world.Profile{}, fmt.Errorf("edge: unknown profile %q", name)
	}
}

// clipKey identifies a rendered reference clip.
type clipKey struct {
	profile  string
	seed     int64
	duration float64
}

// clipCacheCap bounds the session clip cache; reconnect storms re-use the
// clip instead of re-rendering it per attempt.
const clipCacheCap = 8

// Server serves DiVE analytics sessions over TCP.
type Server struct {
	Detector *detect.Detector
	// Logf receives progress lines; nil silences the server.
	Logf func(format string, args ...interface{})
	// Obs receives server telemetry: session/frame/byte counters and
	// decode + detect latency histograms. Nil disables instrumentation.
	Obs *obs.Recorder
	// ReadTimeout bounds the silence between messages on a session; a
	// client that goes quiet longer is dropped (default 60s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each result write (default 10s).
	WriteTimeout time.Duration
	// SessionLabelCap bounds the distinct per-session label values this
	// server mints (0 selects obs.MaxLabelValues). Sessions beyond the cap
	// have their series folded by profile (not profile-seed), so a fleet of
	// hundreds of agents keeps per-profile attribution instead of
	// collapsing into one _overflow series; every folded session increments
	// obs.MetricLabelOverflow. Above obs.MaxLabelValues the metric families
	// fold at their own bound first.
	SessionLabelCap int

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]*connState
	draining bool
	wg       sync.WaitGroup

	labelMu       sync.Mutex
	sessionLabels map[string]struct{}

	clipMu    sync.Mutex
	clips     map[clipKey]*world.Clip
	clipOrder []clipKey
}

// connState is the per-connection state shared between the handler
// goroutine and control-plane writers (RedirectSessions): the write mutex
// keeps a Redirect from interleaving bytes with an in-flight result frame.
type connState struct {
	wmu sync.Mutex
}

// NewServer builds a server with the default detector calibration.
func NewServer() *Server {
	return &Server{Detector: detect.New(detect.DefaultConfig())}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout > 0 {
		return s.ReadTimeout
	}
	return 60 * time.Second
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return 10 * time.Second
}

// clipFor renders (or returns the cached) reference clip for a session.
func (s *Server) clipFor(profile world.Profile, name string, seed int64) *world.Clip {
	key := clipKey{profile: name, seed: seed, duration: profile.ClipDuration}
	s.clipMu.Lock()
	if s.clips == nil {
		s.clips = make(map[clipKey]*world.Clip)
	}
	if clip, ok := s.clips[key]; ok {
		s.clipMu.Unlock()
		return clip
	}
	s.clipMu.Unlock()
	clip := world.GenerateClip(profile, seed)
	s.clipMu.Lock()
	defer s.clipMu.Unlock()
	if cached, ok := s.clips[key]; ok {
		return cached
	}
	if len(s.clipOrder) >= clipCacheCap {
		oldest := s.clipOrder[0]
		s.clipOrder = s.clipOrder[1:]
		delete(s.clips, oldest)
	}
	s.clips[key] = clip
	s.clipOrder = append(s.clipOrder, key)
	return clip
}

// Listen binds the address and returns the bound address (useful with
// ":0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.draining = false
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts sessions until Close or Shutdown. Each connection is handled
// on its own goroutine; Serve returns after the listener closes and all
// handlers exit.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return fmt.Errorf("edge: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			if isClosed(err) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		st := &connState{}
		s.conns[conn] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.wg.Done()
			}()
			if err := s.handle(conn, st); err != nil && err != io.EOF {
				s.logf("session error: %v", err)
			}
		}()
	}
}

// Close stops the listener immediately; active sessions are left to finish
// on their own. Use Shutdown for a graceful drain.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	err := s.ln.Close()
	s.ln = nil
	return err
}

// Shutdown drains the server: it stops accepting sessions, lets active
// handlers finish their in-flight frame and exit cleanly within grace, then
// force-closes whatever remains. Always returns after at most ~grace.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.ln = nil
	// Wake blocked readers: their next read fails after the deadline, and
	// the handler exits cleanly because draining is set.
	deadline := time.Now().Add(grace)
	for conn := range s.conns {
		conn.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace + 500*time.Millisecond):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SessionCount returns the number of active connections.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// RedirectSessions asks every active session to move to target — the
// planned-migration drain hook a balancer calls before taking a member out
// of rotation. Each connection gets one Redirect frame (serialized with the
// handler's result writes by the per-connection write mutex); the client
// closes the connection itself once it has re-established at the target.
// Returns the number of redirects written.
func (s *Server) RedirectSessions(target, reason string) int {
	s.mu.Lock()
	conns := make(map[net.Conn]*connState, len(s.conns))
	for conn, st := range s.conns {
		conns[conn] = st
	}
	s.mu.Unlock()
	n := 0
	for conn, st := range conns {
		st.wmu.Lock()
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		err := WriteRedirect(conn, Redirect{Addr: target, Reason: reason})
		st.wmu.Unlock()
		if err != nil {
			s.logf("redirect write failed: %v", err)
			continue
		}
		n++
		s.Obs.Counter(obs.MetricEdgeRedirectsSent).Inc()
	}
	if n > 0 {
		s.logf("redirected %d session(s) to %s (%s)", n, target, reason)
	}
	return n
}

// Kill stops the server abruptly: the listener and every active connection
// are closed with no drain and no redirect — the chaos "member died"
// primitive. Safe to call more than once.
func (s *Server) Kill() {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	s.draining = true
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	s.wg.Wait()
}

func isClosed(err error) bool {
	var opErr *net.OpError
	if ok := asOpError(err, &opErr); ok {
		return opErr.Err.Error() == "use of closed network connection"
	}
	return false
}

func asOpError(err error, target **net.OpError) bool {
	for err != nil {
		if op, ok := err.(*net.OpError); ok {
			*target = op
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// sessionLabelFor returns the metric label for a session: profile-seed
// while the server has label budget, the bare profile once SessionLabelCap
// distinct sessions exist (folded profile labels live outside the budget,
// so cardinality stays at cap + number of profiles). A session that already
// holds a label keeps it across reconnects. Folds are counted on
// obs.MetricLabelOverflow so the collapse is visible on /metrics.
func (s *Server) sessionLabelFor(profile string, seed int64) string {
	full := fmt.Sprintf("%s-%d", profile, seed)
	limit := s.SessionLabelCap
	if limit <= 0 {
		limit = obs.MaxLabelValues
	}
	s.labelMu.Lock()
	defer s.labelMu.Unlock()
	if s.sessionLabels == nil {
		s.sessionLabels = make(map[string]struct{})
	}
	if _, ok := s.sessionLabels[full]; ok {
		return full
	}
	if len(s.sessionLabels) < limit {
		s.sessionLabels[full] = struct{}{}
		return full
	}
	s.Obs.Counter(obs.MetricLabelOverflow).Inc()
	return profile
}

// handle runs one session.
func (s *Server) handle(conn net.Conn, st *connState) error {
	defer conn.Close()
	mr := NewMsgReader(conn)

	writeResult := func(res *ResultMsg) error {
		st.wmu.Lock()
		defer st.wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		return WriteResult(conn, res)
	}

	conn.SetReadDeadline(time.Now().Add(s.readTimeout()))
	typ, payload, err := mr.Next()
	if err != nil {
		return fmt.Errorf("edge: handshake: %w", err)
	}
	if typ != MsgHello {
		writeResult(&ResultMsg{Index: -1, Err: "expected hello"})
		return fmt.Errorf("edge: handshake: got message type %d", typ)
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		writeResult(&ResultMsg{Index: -1, Err: err.Error()})
		return fmt.Errorf("edge: handshake: %w", err)
	}
	if hello.Profile == ProbeProfile {
		// Health probe: a full accept→handshake→write round trip proves the
		// member is alive end to end, without touching session metrics or
		// rendering a clip. Answer and hang up.
		writeResult(&ResultMsg{Index: -1})
		return nil
	}
	s.Obs.Counter(obs.MetricEdgeSessions).Inc()
	// Per-session labeled series on top of the process-wide globals. The
	// session identity is profile-seed — the same clip identity the agent
	// uses — so a resumed session continues its own series and the agent's
	// and server's views of one stream join on the label. Beyond
	// SessionLabelCap distinct sessions the label folds to the profile name
	// (see sessionLabelFor). All handles are nil (hence no-op) when
	// telemetry is disabled.
	session := s.sessionLabelFor(hello.Profile, hello.Seed)
	sessFrames := s.Obs.LabeledCounter(obs.MetricEdgeSessionFrames, obs.SessionLabel).With(session)
	sessBytes := s.Obs.LabeledCounter(obs.MetricEdgeSessionBytes, obs.SessionLabel).With(session)
	sessNacks := s.Obs.LabeledCounter(obs.MetricEdgeSessionNacks, obs.SessionLabel).With(session)
	sessDecode := s.Obs.LabeledHistogram(obs.StageEdgeSessionDecode, obs.SessionLabel).With(session)
	sessDetect := s.Obs.LabeledHistogram(obs.StageEdgeSessionDetect, obs.SessionLabel).With(session)
	profile, err := profileByName(hello.Profile)
	if err != nil {
		writeResult(&ResultMsg{Index: -1, Err: err.Error()})
		return err
	}
	if hello.Duration > 0 {
		profile.ClipDuration = hello.Duration
	}
	if hello.Resume {
		s.Obs.Counter(obs.MetricEdgeResumes).Inc()
		s.logf("session resume: profile=%s seed=%d from frame %d",
			hello.Profile, hello.Seed, hello.FirstFrame)
	} else {
		s.logf("session: profile=%s seed=%d dur=%.1fs — rendering reference clip",
			hello.Profile, hello.Seed, profile.ClipDuration)
	}
	clip := s.clipFor(profile, hello.Profile, hello.Seed)
	if hello.FirstFrame >= clip.NumFrames() {
		msg := fmt.Sprintf("resume frame %d beyond clip end %d", hello.FirstFrame, clip.NumFrames())
		writeResult(&ResultMsg{Index: -1, Err: msg})
		return fmt.Errorf("edge: %s", msg)
	}
	vdec, err := codec.NewDecoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		return err
	}
	// Acknowledge the handshake so the client knows the session (and a
	// resume in particular) was accepted before it starts streaming.
	if err := writeResult(&ResultMsg{Index: -1, NeedKeyframe: true}); err != nil {
		return fmt.Errorf("edge: handshake ack: %w", err)
	}

	// needKey tracks decoder sync: set after a resume, a corrupt or
	// malformed message, a frame-index gap or a decode failure; cleared
	// when an intra frame lands. While set, P-frames are NACKed without
	// touching the decoder.
	needKey := true
	expect := hello.FirstFrame

	for {
		conn.SetReadDeadline(time.Now().Add(s.readTimeout()))
		typ, payload, err := mr.Next()
		if err != nil {
			switch {
			case err == io.EOF:
				return nil
			case IsRecoverable(err):
				// One damaged message: NACK with a keyframe request —
				// a frame may have been lost inside the garbage.
				s.Obs.Counter(obs.MetricEdgeCorrupt).Inc()
				s.Obs.Counter(obs.MetricEdgeNacks).Inc()
				sessNacks.Inc()
				needKey = true
				if werr := writeResult(&ResultMsg{Index: -1, Err: "corrupt message: " + err.Error(), NeedKeyframe: true}); werr != nil {
					return fmt.Errorf("edge: write nack: %w", werr)
				}
				continue
			case isTimeout(err):
				if s.Draining() {
					return nil
				}
				return fmt.Errorf("edge: session idle past %v: %w", s.readTimeout(), err)
			default:
				return fmt.Errorf("edge: read frame: %w", err)
			}
		}
		if typ != MsgFrame {
			s.Obs.Counter(obs.MetricEdgeNacks).Inc()
			sessNacks.Inc()
			if werr := writeResult(&ResultMsg{Index: -1, Err: fmt.Sprintf("unexpected message type %d", typ)}); werr != nil {
				return fmt.Errorf("edge: write nack: %w", werr)
			}
			continue
		}
		fm, err := DecodeFrameMsg(payload)
		if err != nil {
			s.Obs.Counter(obs.MetricEdgeCorrupt).Inc()
			s.Obs.Counter(obs.MetricEdgeNacks).Inc()
			sessNacks.Inc()
			needKey = true
			if werr := writeResult(&ResultMsg{Index: -1, Err: "malformed frame: " + err.Error(), NeedKeyframe: true}); werr != nil {
				return fmt.Errorf("edge: write nack: %w", werr)
			}
			continue
		}

		t0 := time.Now()
		res := ResultMsg{Index: fm.Index, SentNanos: fm.SentNanos, TraceID: fm.TraceID}
		// Rehydrate the agent-minted trace context: decode/detect spans
		// recorded under it stitch into the agent's frame trace by ID.
		ctx := obs.TraceContext{TraceID: fm.TraceID, Frame: fm.Index, SpanID: fm.SpanID}
		s.Obs.Counter(obs.MetricEdgeFrames).Inc()
		s.Obs.Counter(obs.MetricEdgeBytes).Add(int64(len(fm.Bitstream)))
		sessFrames.Inc()
		sessBytes.Add(int64(len(fm.Bitstream)))
		switch {
		case fm.Index < 0 || fm.Index >= clip.NumFrames():
			res.Err = fmt.Sprintf("frame index %d out of range", fm.Index)
		case fm.Index != expect:
			// The agent skipped frames (outage, frame-skip degradation).
			// The decoder reference is stale; require an intra frame.
			needKey = true
			fallthrough
		default:
			ftype, serr := codec.SniffFrameType(fm.Bitstream)
			switch {
			case serr != nil:
				res.Err = "unreadable bitstream: " + serr.Error()
				res.NeedKeyframe = true
				needKey = true
				s.Obs.Counter(obs.MetricEdgeNacks).Inc()
				sessNacks.Inc()
			case needKey && ftype != codec.IFrame:
				// Desynced and the frame is predicted: decoding it against
				// the stale reference would silently corrupt every frame
				// until the next GoP. NACK instead.
				res.Err = "decoder desynchronized"
				res.NeedKeyframe = true
				s.Obs.Counter(obs.MetricEdgeNacks).Inc()
				sessNacks.Inc()
			default:
				decodeSpan := s.Obs.StartStageSpan(ctx, "decode", "edge", obs.StageEdgeDecode)
				decT0 := time.Now()
				df, derr := vdec.Decode(fm.Bitstream)
				sessDecode.Observe(time.Since(decT0).Seconds())
				decodeSpan.End()
				if derr != nil {
					res.Err = derr.Error()
					res.NeedKeyframe = true
					needKey = true
					s.Obs.Counter(obs.MetricEdgeNacks).Inc()
					sessNacks.Inc()
				} else {
					needKey = false
					expect = fm.Index + 1
					detectSpan := s.Obs.StartStageSpan(ctx, "detect", "edge", obs.StageEdgeDetect)
					detT0 := time.Now()
					dets := s.Detector.Detect(df.Image, clip.Frames[fm.Index], clip.GT[fm.Index], hello.Seed^int64(fm.Index*7919))
					sessDetect.Observe(time.Since(detT0).Seconds())
					detectSpan.End()
					res.Detections = ToWire(dets)
				}
			}
		}
		res.ServerMs = time.Since(t0).Seconds() * 1000
		// Server-side SLO view of this session: per-frame processing time
		// (decode + detect + framing); foreground share is agent-side only.
		s.Obs.ObserveSLO(session, obs.SLOSample{LatencySec: time.Since(t0).Seconds(), FGShare: -1})
		ackSpan := s.Obs.StartSpan(ctx, "ack", "edge")
		err = writeResult(&res)
		ackSpan.End()
		if err != nil {
			return fmt.Errorf("edge: write result: %w", err)
		}
	}
}
