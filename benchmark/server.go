package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"dive/internal/detect"
	"dive/internal/edge"
	"dive/internal/obs"
)

// edgeServer is a real edge.Server listening on loopback.
type edgeServer struct {
	srv  *edge.Server
	addr string
	done chan error
}

func startServer(rec *obs.Recorder) (*edgeServer, error) {
	srv := edge.NewServer()
	srv.Obs = rec
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &edgeServer{srv: srv, addr: addr.String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	return s, nil
}

// stop drains the server and waits until Serve and every handler returned.
func (s *edgeServer) stop() error {
	if err := s.srv.Shutdown(2 * time.Second); err != nil {
		return err
	}
	return <-s.done
}

// session is one replay or lock-step connection: handshake done, frames next.
type session struct {
	conn net.Conn
	mr   *edge.MsgReader
}

// openSession dials the server and completes the Hello handshake for a clip.
func openSession(addr string, in *input) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	s := &session{conn: conn, mr: edge.NewMsgReader(conn)}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	err = edge.WriteHello(conn, edge.Hello{Profile: in.profile.Name, Seed: in.seed, Duration: in.profile.ClipDuration})
	if err == nil {
		var ack edge.ResultMsg
		if ack, err = s.next(); err == nil && ack.Err != "" {
			err = fmt.Errorf("server rejected session: %s", ack.Err)
		}
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake %s: %w", in.profile.Name, err)
	}
	return s, nil
}

// next reads one result message.
func (s *session) next() (edge.ResultMsg, error) {
	typ, payload, err := s.mr.Next()
	if err != nil {
		return edge.ResultMsg{}, err
	}
	if typ != edge.MsgResult {
		return edge.ResultMsg{}, fmt.Errorf("unexpected message type %d", typ)
	}
	return edge.DecodeResultMsg(payload)
}

// finish half-closes the uplink and requires the server to answer with
// nothing but end of stream: every frame was acked exactly once.
func (s *session) finish() error {
	defer s.conn.Close()
	if tc, ok := s.conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return err
		}
	}
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if res, err := s.next(); err == nil {
		return fmt.Errorf("unsolicited result for frame %d after the last ack", res.Index)
	}
	return nil
}

// replayTotals accumulates one replay connection's side of a pass.
type replayTotals struct {
	acked    int
	nacks    int
	rttMs    []float64
	serverMs float64 // Σ ResultMsg.ServerMs
	bits     int64
	dets     [][][]detect.Detection // per clip, per frame: what the server returned
}

// replayClip replays one clip's reference bitstreams as one session, window
// 1: write a frame, wait for its result. Every result must name the frame
// just sent, carry no error and no keyframe demand, and hold exactly the
// detections the reference pass computed from the same bitstream.
func replayClip(addr string, conn, ci int, in *input, ref *clipRef, tr *tracer, chk *checker, tot *replayTotals) error {
	s, err := openSession(addr, in)
	if err != nil {
		return err
	}
	sessionID := conn*len(tot.dets) + ci
	got := make([][]detect.Detection, len(ref.payloads))
	for i, payload := range ref.payloads {
		if !ref.uploaded[i] {
			continue
		}
		root := tr.begin(0, "bench", "frame", sessionID, i)
		t0 := time.Now()
		sp := tr.begin(root, "edge", "frame_write", sessionID, i)
		s.conn.SetDeadline(t0.Add(10 * time.Second))
		err := edge.WriteFrame(s.conn, &edge.FrameMsg{Index: i, Bitstream: payload, SentNanos: t0.UnixNano()})
		tr.end(sp)
		if err != nil {
			s.conn.Close()
			return fmt.Errorf("%s frame %d: write: %w", in.profile.Name, i, err)
		}
		sp = tr.begin(root, "edge", "await", sessionID, i)
		res, err := s.next()
		tr.end(sp)
		rtt := time.Since(t0)
		tr.end(root)
		if err != nil {
			s.conn.Close()
			return fmt.Errorf("%s frame %d: result: %w", in.profile.Name, i, err)
		}
		tot.rttMs = append(tot.rttMs, float64(rtt.Nanoseconds())/1e6)
		tot.serverMs += res.ServerMs
		tot.bits += int64(ref.bits[i])
		tot.acked++
		bad := ""
		switch {
		case res.Index != i:
			bad = fmt.Sprintf("acked as frame %d", res.Index)
		case res.Err != "" || res.NeedKeyframe:
			tot.nacks++
			bad = fmt.Sprintf("NACK %q keyframe=%v", res.Err, res.NeedKeyframe)
		case !sameDetections(res.Detections, ref.fed[i]):
			bad = "detections differ from the reference pass"
		}
		chk.attempt(1)
		if bad != "" {
			chk.fail("%s frame %d: %s", in.profile.Name, i, bad)
		}
		got[i] = edge.FromWire(res.Detections)
	}
	tot.dets[ci] = got
	if err := s.finish(); err != nil {
		chk.fail("%s: %v", in.profile.Name, err)
	}
	return nil
}

// replayPass runs conns connections at once, each replaying every clip as
// its own session, and returns the pass's wall time.
func replayPass(addr string, conns int, st *agentState, tr *tracer, chk *checker) (time.Duration, []*replayTotals, error) {
	var wg sync.WaitGroup
	tots := make([]*replayTotals, conns)
	errs := make([]error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		tots[c] = &replayTotals{dets: make([][][]detect.Detection, len(st.ins))}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ci, in := range st.ins {
				if errs[c] = replayClip(addr, c, ci, in, st.refs[ci], tr, chk, tots[c]); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	return wall, tots, nil
}

// replaySummary pools the connections' totals of some passes. best[c] holds
// the least round trip of each frame connection c replays.
type replaySummary struct {
	acked, nacks int
	rttMs        []float64
	serverMs     float64
	passFPS      []float64
	best         []bestOf
}

func (r *replaySummary) add(wall time.Duration, tots []*replayTotals) {
	if r.best == nil {
		r.best = make([]bestOf, len(tots))
	}
	acked := 0
	for c, t := range tots {
		acked += t.acked
		r.nacks += t.nacks
		r.rttMs = append(r.rttMs, t.rttMs...)
		r.serverMs += t.serverMs
		r.best[c].fold(t.rttMs)
	}
	r.acked += acked
	r.passFPS = append(r.passFPS, float64(acked)/wall.Seconds())
}

// fps is the rate the connections sustain together: each completes its frames
// back to back, one round trip after the other, all of them at once.
func (r *replaySummary) fps() float64 {
	sum := 0.0
	for c := range r.best {
		sum += r.best[c].perSecond()
	}
	return sum
}

// serverState is what set-up leaves for server_replay's timed passes.
type serverState struct {
	*agentState
	srv *edgeServer
}

// setupServer pre-encodes clip set number set with the agent_clear agent,
// starts the server and replays one warm-up pass, in which the server renders
// and caches its reference clips. What the server returned to the first
// connection, and the bits it was sent, go to pool.
func setupServer(o *options, set int, chk *checker, aux *tracer, pool *content) (*serverState, *agentTotals, error) {
	ast, tot, err := setupAgent(o, set, false, chk, aux, &content{})
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(nil)
	if err != nil {
		return nil, nil, err
	}
	_, tots, err := replayPass(srv.addr, loadConns(), ast, nil, chk)
	if err != nil {
		srv.stop()
		return nil, nil, err
	}
	pool.add(ast.ins, tots[0].dets, tots[0].bits, tots[0].acked)
	return &serverState{ast, srv}, tot, nil
}

// runServerReplay is server_replay: a real edge.Server on loopback and
// conns closed-loop replay connections; no agent code runs in the timed phase.
func runServerReplay(o *options) (*result, error) {
	chk := &checker{}
	res := &result{Workload: wlServerReplay, Traced: o.trace}
	var aux *tracer
	if o.trace {
		aux = newTracer(wlServerReplay + ".setup")
	}
	var st *serverState
	var pre *agentTotals
	pool := &content{}
	sum := &replaySummary{}
	var mallocs, allocBytes uint64
	setups, err := o.measure(func(set int) error {
		s, t, err := setupServer(o, set, chk, aux, pool)
		if err != nil {
			return err
		}
		if set == 0 {
			st, pre = s, t
			return nil
		}
		return s.srv.stop()
	}, func() error {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		wall, tots, err := replayPass(st.srv.addr, loadConns(), st.agentState, nil, chk)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		mallocs, allocBytes = mallocs+ms1.Mallocs-ms0.Mallocs, allocBytes+ms1.TotalAlloc-ms0.TotalAlloc
		sum.add(wall, tots)
		return nil
	})
	if st != nil {
		defer st.srv.stop()
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		return tracedServer(o, st, pre, chk, res, aux)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	best := pooled(sum.best)
	p50, p90, err := frameMetrics(wlServerReplay, o, best)
	if err != nil {
		return nil, err
	}
	n := float64(sum.acked)
	res.EndToEnd = map[string]float64{
		"fps":            sum.fps(),
		"frame_ms_p50":   p50,
		"frame_ms_p90":   p90,
		"allocs_frame":   float64(mallocs) / n,
		"alloc_kb_frame": float64(allocBytes) / 1024 / n,
		"kbit_frame":     pool.kbit(),
		"map":            pool.mAP(),
		"live_heap_mb":   float64(ms.HeapInuse) / (1 << 20),
		"setup_s":        median(setups),
	}
	res.Info = map[string]float64{
		"passes": float64(len(sum.passFPS)), "frames_per_pass": float64(loadConns() * totalFrames(st.ins)),
		"fps_wall": median(sum.passFPS), "frame_ms_wall_p50": median(sum.rttMs), "frame_ms_wall_p99": pct(sum.rttMs, 0.99),
		"frame_ms_samples": float64(len(best.ms)), "conns": float64(loadConns()),
		// fps over the clips' mean frame rate: how many real-time sessions
		// one core's worth of this server could carry.
		"sessions_per_core_proxy": sum.fps() / (float64(totalFrames(st.ins)) / (float64(len(st.ins)) * o.clipSeconds())) / float64(runtime.GOMAXPROCS(0)),
	}
	res.finish(chk)
	return res, nil
}

// tracedServer alternates, for the run's budget, an untraced replay pass, a
// replay pass with a span around each write and wait, one in-process pass of
// the session handler's work (serverSide.handle) over the same bitstreams,
// which is what splits the server's time by layer, and an untraced replay
// pass against a second server that has a telemetry recorder.
func tracedServer(o *options, st *serverState, pre *agentTotals, chk *checker, res *result, aux *tracer) (*result, error) {
	withObs, err := startServer(obs.NewRecorder(0))
	if err != nil {
		return nil, err
	}
	defer withObs.stop()
	// The second server renders its reference clips in this pass.
	if _, _, err := replayPass(withObs.addr, loadConns(), st.agentState, nil, chk); err != nil {
		return nil, err
	}

	tr := newTracer(wlServerReplay)
	plain, traced, on := &replaySummary{}, &replaySummary{}, &replaySummary{}
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || len(plain.passFPS) == 0 {
		for _, p := range []struct {
			addr string
			tr   *tracer
			sum  *replaySummary
		}{{st.srv.addr, nil, plain}, {st.srv.addr, tr, traced}, {withObs.addr, nil, on}} {
			wall, tots, err := replayPass(p.addr, loadConns(), st.agentState, p.tr, chk)
			if err != nil {
				return nil, err
			}
			p.sum.add(wall, tots)
		}
		for ci, in := range st.ins {
			side, err := newServerSide(in)
			if err != nil {
				return nil, err
			}
			for i, payload := range st.refs[ci].payloads {
				if !st.refs[ci].uploaded[i] {
					continue
				}
				root := tr.begin(0, "bench", "handler", ci, i)
				_, _, err := side.handle(tr, root, ci, i, payload)
				tr.end(root)
				if err != nil {
					chk.fail("%s frame %d: handler shadow: %v", in.profile.Name, i, err)
				}
			}
		}
	}

	pl := map[string]float64{}
	ls := newLayerSamples(tr, aux)
	// The frame span is the round trip. The live server reports how much of
	// it is its own (ServerMs); the handler shadow splits that part by layer.
	serverShare := traced.serverMs / sumOf(traced.rttMs)
	handlerMs := ls.sum(handlerKeys...) + ls.sum("bench.handler")
	fillLayerTimes(pl, ls, handlerMs/serverShare, handlerKeys)
	fillAgentContent(pl, pre, 0)
	fillServerSide(pl, pre)
	pl["edge.server_share"] = serverShare
	pl["edge.wire_share"] = 1 - serverShare
	pl["edge.nack_share"] = float64(plain.nacks+traced.nacks) / float64(plain.acked+traced.acked)
	// One handler pass stands beside conns concurrent replays of the same
	// frames: how much of the live server's own time the shadow accounts for.
	pl["bench.layer_coverage"] = ls.sum(handlerKeys...) / (traced.serverMs / float64(loadConns()))
	pl["bench.trace_overhead_share"] = 1 - traced.fps()/plain.fps()
	pl["codec.decode_allocs_frame"] = decodeAllocs(st.ins, st.refs)
	pl["obs.server_overhead_share"] = 1 - on.fps()/plain.fps()
	zeroMissing(pl)
	res.PerLayer = pl
	res.Info = map[string]float64{
		"passes": float64(len(plain.passFPS)), "fps_untraced": plain.fps(), "fps_traced": traced.fps(),
		"edge.server_ms": traced.serverMs / float64(traced.acked), "edge.wire_overhead_ms": (sumOf(traced.rttMs) - traced.serverMs) / float64(traced.acked),
		"edge.rtt_ms_p50": median(traced.rttMs),
	}
	res.finish(chk)
	o.keepTrace(aux, tr)
	return res, nil
}
