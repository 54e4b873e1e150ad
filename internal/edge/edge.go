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
//
// Each rule has one home: what a server answers and when its decoder may be
// trusted is session.step and its transition table (session.go), which
// Server.serveFrame only feeds and counts; the client half of the handshake
// is Handshake; every message is encoded once into a pooled envelope and read
// from a buffer its MsgReader owns (wire.go states both lifetimes).
package edge

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
	return appendWire(make([]WireDetection, 0, len(dets)), dets)
}

// appendWire is ToWire appending to dst: the server fills each reply into
// the capacity of the last one.
func appendWire(dst []WireDetection, dets []detect.Detection) []WireDetection {
	for _, d := range dets {
		dst = append(dst, WireDetection{
			Class: int(d.Class),
			MinX:  d.Box.MinX, MinY: d.Box.MinY,
			MaxX: d.Box.MaxX, MaxY: d.Box.MaxY,
			Score: d.Score,
		})
	}
	return dst
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
	detector     *detect.Detector

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]*connState
	wg    sync.WaitGroup
	// drainBy is the drain deadline in Unix nanoseconds, set by Shutdown or
	// Kill (now) and 0 before either: no read deadline is armed past it.
	drainBy atomic.Int64

	clipMu    sync.Mutex
	clips     map[clipKey]*clipEntry
	clipOrder []clipKey
}

// connState is the write side of one connection, shared between the handler
// goroutine and control-plane writers (RedirectSessions). Every writer hands
// it a whole message in one Write, so the mutex keeps a Redirect from
// interleaving bytes with an in-flight result.
type connState struct {
	conn    net.Conn
	timeout time.Duration
	wmu     sync.Mutex
}

// Write sends one message under the write deadline.
func (st *connState) Write(p []byte) (int, error) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.conn.SetWriteDeadline(time.Now().Add(st.timeout))
	return st.conn.Write(p)
}

// NewServer builds a server with the default detector calibration.
func NewServer() *Server {
	return &Server{detector: detect.New(detect.DefaultConfig())}
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

// clipEntry is one slot of the clip cache: the first session to ask for the
// clip renders it, and concurrent sessions for the same clip wait on once.
type clipEntry struct {
	once sync.Once
	clip *world.Clip
}

// clipFor renders (or returns the cached) reference clip for a session.
func (s *Server) clipFor(profile world.Profile, name string, seed int64) *world.Clip {
	key := clipKey{profile: name, seed: seed, duration: profile.ClipDuration}
	s.clipMu.Lock()
	if s.clips == nil {
		s.clips = make(map[clipKey]*clipEntry)
	}
	e, ok := s.clips[key]
	if !ok {
		if len(s.clipOrder) >= clipCacheCap {
			delete(s.clips, s.clipOrder[0])
			s.clipOrder = s.clipOrder[1:]
		}
		e = &clipEntry{}
		s.clips[key] = e
		s.clipOrder = append(s.clipOrder, key)
	}
	s.clipMu.Unlock()
	e.once.Do(func() {
		s.logf("rendering reference clip: profile=%s seed=%d dur=%.1fs", name, seed, profile.ClipDuration)
		e.clip = world.GenerateClip(profile, seed)
	})
	return e.clip
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
	s.drainBy.Store(0)
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts sessions until Shutdown or Kill. Each connection is handled
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
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.Draining() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		st := &connState{conn: conn, timeout: s.writeTimeout()}
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
			if err := s.handle(st); err != nil && err != io.EOF {
				s.logf("session error: %v", err)
			}
		}()
	}
}

// stop sets the drain deadline, refuses new sessions, closes the listener
// and returns the live connections. The deadline is stored before the
// connections are listed: a handler whose armRead missed it is on the list,
// and the caller re-arms (Shutdown) or closes (Kill) it after that set.
func (s *Server) stop(drainBy time.Time) ([]net.Conn, error) {
	s.mu.Lock()
	s.drainBy.Store(drainBy.UnixNano())
	ln := s.ln
	s.ln = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	if ln == nil {
		return conns, nil
	}
	return conns, ln.Close()
}

// Shutdown drains the server: it stops accepting sessions, lets active
// handlers finish their in-flight frame and exit cleanly within grace, then
// force-closes whatever remains. Always returns after at most ~grace.
func (s *Server) Shutdown(grace time.Duration) error {
	// Wake blocked readers: their next read fails after the deadline, and
	// the handler exits cleanly because the server is draining.
	deadline := time.Now().Add(grace)
	conns, err := s.stop(deadline)
	for _, conn := range conns {
		conn.SetReadDeadline(deadline)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace + 500*time.Millisecond):
		for _, conn := range conns {
			conn.Close()
		}
		<-done
	}
	return err
}

// Draining reports whether Shutdown or Kill has begun.
func (s *Server) Draining() bool { return s.drainBy.Load() != 0 }

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
	conns := make([]*connState, 0, len(s.conns))
	for _, st := range s.conns {
		conns = append(conns, st)
	}
	s.mu.Unlock()
	n := 0
	for _, st := range conns {
		if err := writeRedirect(st, Redirect{Addr: target, Reason: reason}); err != nil {
			s.logf("redirect write failed: %v", err)
			continue
		}
		n++
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
	conns, _ := s.stop(time.Now())
	for _, conn := range conns {
		conn.Close()
	}
	s.wg.Wait()
}

// armRead sets conn's deadline for the next read: readTimeout from now, but
// never past the drain deadline. It loads drainBy after the set (see stop);
// before a drain that costs one atomic load.
func (s *Server) armRead(conn net.Conn) {
	d := time.Now().Add(s.readTimeout())
	conn.SetReadDeadline(d)
	if by := s.drainBy.Load(); by != 0 && by < d.UnixNano() {
		conn.SetReadDeadline(time.Unix(0, by))
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// sessionMetrics are one session's labeled series, the server's only record
// of frames, bytes, NACKs and decode/detect time (a process total is their
// sum). The label is profile-seed — the clip identity the agent's SLO series
// use too — so a resumed session continues its own series and both ends'
// views of one stream join on it; the families bound its cardinality. All
// handles are nil, hence no-ops, when telemetry is disabled.
type sessionMetrics struct {
	label                string
	frames, bytes, nacks *obs.Counter
	decode, detect       *obs.Histogram
}

// count moves the frame, byte and NACK counters a row calls for.
func (m *sessionMetrics) count(out outcome, bitstreamLen int) {
	row := rules[out]
	if row.frame {
		m.frames.Inc()
		m.bytes.Add(int64(bitstreamLen))
	}
	if row.nack {
		m.nacks.Inc()
	}
}

// handshake reads the Hello and answers it. A nil session means there is
// nothing to serve: the error says why, and is nil for a health probe.
func (s *Server) handshake(st *connState, mr *MsgReader) (*session, *sessionMetrics, error) {
	reject := func(msg string) (*session, *sessionMetrics, error) {
		WriteResult(st, &ResultMsg{Index: -1, Err: msg})
		return nil, nil, fmt.Errorf("edge: handshake rejected: %s", msg)
	}
	s.armRead(st.conn)
	typ, payload, err := mr.Next()
	if err != nil {
		return nil, nil, fmt.Errorf("edge: handshake: %w", err)
	}
	if typ != MsgHello {
		return reject("expected hello")
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		return reject(err.Error())
	}
	if hello.Profile == ProbeProfile {
		// Health probe: a full accept→handshake→write round trip proves the
		// member is alive end to end, without touching session metrics or
		// rendering a clip. Answer and hang up.
		WriteResult(st, &ResultMsg{Index: -1})
		return nil, nil, nil
	}
	profile, ok := world.ProfileByName(hello.Profile)
	if !ok {
		return reject(fmt.Sprintf("edge: unknown profile %q", hello.Profile))
	}
	if hello.Duration > 0 {
		profile.ClipDuration = hello.Duration
	}
	if hello.Resume {
		s.logf("session resume: profile=%s seed=%d from frame %d",
			hello.Profile, hello.Seed, hello.FirstFrame)
	} else {
		s.logf("session: profile=%s seed=%d dur=%.1fs", hello.Profile, hello.Seed, profile.ClipDuration)
	}
	clip := s.clipFor(profile, hello.Profile, hello.Seed)
	if hello.FirstFrame >= clip.NumFrames() {
		return reject(fmt.Sprintf("resume frame %d beyond clip end %d", hello.FirstFrame, clip.NumFrames()))
	}
	// Only a Hello that will be served mints the per-session series: a
	// label value is a bounded resource (obs.MaxLabelValues per family), and
	// a stream of rejected Hellos with distinct names must not push real
	// sessions into the overflow child.
	m := &sessionMetrics{label: fmt.Sprintf("%s-%d", hello.Profile, hello.Seed)}
	m.frames = s.Obs.LabeledCounter(obs.MetricEdgeSessionFrames, obs.SessionLabel).With(m.label)
	m.bytes = s.Obs.LabeledCounter(obs.MetricEdgeSessionBytes, obs.SessionLabel).With(m.label)
	m.nacks = s.Obs.LabeledCounter(obs.MetricEdgeSessionNacks, obs.SessionLabel).With(m.label)
	m.decode = s.Obs.LabeledHistogram(obs.StageEdgeSessionDecode, obs.SessionLabel).With(m.label)
	m.detect = s.Obs.LabeledHistogram(obs.StageEdgeSessionDetect, obs.SessionLabel).With(m.label)
	dec, err := codec.NewDecoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		return nil, nil, err
	}
	// Acknowledge the handshake so the client knows the session (and a
	// resume in particular) was accepted before it starts streaming. The
	// decoder is fresh: the session starts desynced.
	if err := WriteResult(st, &ResultMsg{Index: -1, NeedKeyframe: true}); err != nil {
		return nil, nil, fmt.Errorf("edge: handshake ack: %w", err)
	}
	return &session{clip: clip, seed: hello.Seed, dec: dec, needKey: true, expect: hello.FirstFrame}, m, nil
}

// handle runs one session: the handshake, then serveFrame on every read.
func (s *Server) handle(st *connState) error {
	defer st.conn.Close()
	mr := NewMsgReader(st.conn)
	ss, m, err := s.handshake(st, mr)
	if ss == nil {
		return err
	}
	for {
		s.armRead(st.conn)
		typ, payload, rerr := mr.Next()
		if err := s.serveFrame(st, ss, m, typ, payload, rerr); err != nil {
			return err
		}
	}
}

// serveFrame is a session's work on one read: step → decode and detect →
// count → reply. It returns io.EOF when the session ends cleanly.
func (s *Server) serveFrame(st *connState, ss *session, m *sessionMetrics, typ byte, payload []byte, rerr error) error {
	switch {
	case rerr == nil || IsRecoverable(rerr): // the step's input
	case rerr == io.EOF, isTimeout(rerr) && s.Draining():
		return io.EOF
	case isTimeout(rerr):
		return fmt.Errorf("edge: session idle past %v: %w", s.readTimeout(), rerr)
	default:
		return fmt.Errorf("edge: read frame: %w", rerr)
	}
	t0 := time.Now()
	res := &ss.res
	fm, out := ss.step(typ, payload, rerr, res)
	// Rehydrate the agent-minted trace context: decode/detect spans
	// recorded under it stitch into the agent's frame trace by ID.
	ctx := obs.TraceContext{TraceID: fm.TraceID, Frame: fm.Index, SpanID: fm.SpanID}
	if out == outAccepted {
		out = s.decodeAndDetect(ss, m, ctx, &fm, res)
	}
	m.count(out, len(fm.Bitstream))
	var ackSpan obs.Span
	if rules[out].frame {
		// One reading of the service time (decode + detect + framing)
		// serves the reply and the server-side SLO view of this session;
		// foreground share is agent-side only.
		served := time.Since(t0).Seconds()
		res.ServerMs = served * 1000
		s.Obs.ObserveSLO(m.label, obs.SLOSample{LatencySec: served, FGShare: -1})
		ackSpan = s.Obs.StartSpan(ctx, "ack", "edge")
	}
	err := WriteResult(st, res)
	ackSpan.End()
	if err != nil {
		return fmt.Errorf("edge: write reply: %w", err)
	}
	return nil
}

// decodeAndDetect is the work behind an accepted frame, each half under its
// own span, which observes the session's histogram; the decode settles the
// outcome.
func (s *Server) decodeAndDetect(ss *session, m *sessionMetrics, ctx obs.TraceContext, fm *FrameMsg, res *ResultMsg) outcome {
	span := s.Obs.StartStageSpan(ctx, "decode", "edge", m.decode)
	df, out := ss.decode(fm, res)
	span.End()
	if out != outDecoded {
		return out
	}
	span = s.Obs.StartStageSpan(ctx, "detect", "edge", m.detect)
	dets := s.detector.DetectInto(&ss.det, df.Image, ss.clip.Frames[fm.Index], ss.clip.GT[fm.Index], ss.seed^int64(fm.Index*7919))
	span.End()
	res.Detections = appendWire(res.Detections, dets)
	return out
}
