package main

import (
	"fmt"
	"runtime"
	"time"

	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/edge"
)

// liveAgent builds the agent of a live session: defaults, all cores, no
// telemetry.
func liveAgent(in *input) (core.AgentConfig, *core.Agent, error) {
	cfg := core.DefaultAgentConfig(in.clip.W, in.clip.H, in.clip.FPS, in.clip.Focal)
	cfg.Seed = in.seed
	cfg.Obs = nil
	agent, err := core.NewAgent(cfg)
	return cfg, agent, err
}

// clientRun is phase A: the repository's own edge.Client drives one clip
// through a fresh agent to the server, window 1, unpaced. It returns the
// detections the client ends up with.
func clientRun(addr string, in *input, chk *checker) ([][]detect.Detection, error) {
	_, agent, err := liveAgent(in)
	if err != nil {
		return nil, err
	}
	client := edge.NewClient(edge.ClientConfig{
		Addr: addr, Profile: in.profile.Name, Seed: in.seed, Duration: in.profile.ClipDuration,
		Window: 1, AckTimeout: 2 * time.Second,
	}, agent)
	dets, stats, err := client.Run(in.clip)
	if err != nil {
		return nil, fmt.Errorf("edge.Client.Run %s: %w", in.profile.Name, err)
	}
	n := in.clip.NumFrames()
	chk.attempt(n)
	// On loopback nothing may be lost: an ack timeout, a NACK, a skipped
	// upload or a reconnect is a failure of the system, not of the link.
	if bad := (n - stats.FramesUploaded) + stats.OutageFrames + stats.Nacks + stats.Reconnects; bad > 0 {
		for k := 0; k < min(bad, n); k++ {
			chk.fail("%s: client stats %+v", in.profile.Name, stats)
		}
	}
	return dets, nil
}

// lockstepClip is phase B: the benchmark's own lock-step session for one
// clip, in edge.Client.Run's order — ProcessFrame, WriteFrame,
// OnTransmitComplete, wait for the result, OnDetections — with a clock read
// at capture and one when the detections are decoded. Traced, the shadow
// decomposition replays each frame after its result arrived and must emit the
// same bitstream. With keep set the uploaded bitstreams are returned beside
// the server's detections, for verification.
func lockstepClip(addr string, session int, in *input, tr *tracer, chk *checker, tot *agentTotals, keep bool) (payloads [][]byte, served [][]detect.Detection, err error) {
	cfg, agent, err := liveAgent(in)
	if err != nil {
		return nil, nil, err
	}
	var shadow *shadowAgent
	if tr != nil {
		if shadow, err = newShadowAgent(cfg); err != nil {
			return nil, nil, err
		}
	}
	s, err := openSession(addr, in)
	if err != nil {
		return nil, nil, err
	}
	defer s.conn.Close()
	n := in.clip.NumFrames()
	served = make([][]detect.Detection, n)
	if keep {
		payloads = make([][]byte, n)
	}
	start := time.Now()
	for i, frame := range in.clip.Frames {
		chk.attempt(1)
		root := tr.begin(0, "bench", "frame", session, i)
		t0 := time.Now()
		now := t0.Sub(start).Seconds()
		sp := tr.begin(root, "core", "process", session, i)
		fr, err := agent.ProcessFrame(frame, now)
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s frame %d: %w", in.profile.Name, i, err)
		}
		ef := fr.Encoded
		sp = tr.begin(root, "edge", "frame_write", session, i)
		sendStart := time.Since(start).Seconds()
		s.conn.SetDeadline(t1.Add(10 * time.Second))
		err = edge.WriteFrame(s.conn, &edge.FrameMsg{Index: ef.Index, Bitstream: ef.Data, SentNanos: t1.UnixNano()})
		sendEnd := time.Since(start).Seconds()
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s frame %d: write: %w", in.profile.Name, i, err)
		}
		agent.OnTransmitComplete(sendStart, sendEnd, ef.NumBits)
		sp = tr.begin(root, "edge", "await", session, i)
		res, err := s.next()
		t2 := time.Now()
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("%s frame %d: result: %w", in.profile.Name, i, err)
		}
		dets := edge.FromWire(res.Detections)
		agent.OnDetections(dets)
		served[i] = dets
		tot.serverMs += res.ServerMs

		tot.observe(fr, float64(t2.Sub(t0).Nanoseconds())/1e6)
		tot.uploaded++
		tot.bits += int64(ef.NumBits)
		tot.dets += len(dets)
		if keep {
			payloads[i] = ef.Data
		}
		switch {
		case res.Index != ef.Index:
			chk.fail("%s frame %d: acked as frame %d", in.profile.Name, i, res.Index)
		case res.Err != "" || res.NeedKeyframe:
			tot.outages++
			chk.fail("%s frame %d: NACK %q keyframe=%v", in.profile.Name, i, res.Err, res.NeedKeyframe)
		case (ef.NumBits+7)/8 != len(ef.Data):
			chk.fail("%s frame %d: NumBits %d does not match %d payload bytes", in.profile.Name, i, ef.NumBits, len(ef.Data))
		}
		if shadow != nil {
			glue, err := shadow.replay(tr, session, i, frame, now, ef, t1.Sub(t0), chk)
			if err != nil {
				return nil, nil, fmt.Errorf("%s %w", in.profile.Name, err)
			}
			shadow.OnTransmitComplete(sendStart, sendEnd, ef.NumBits)
			tot.glueMs = append(tot.glueMs, glue)
		}
	}
	if err := s.finish(); err != nil {
		chk.fail("%s: %v", in.profile.Name, err)
	}
	return payloads, served, nil
}

// verifyServed decodes the bitstreams a live session uploaded and runs the
// detector on them locally: the server must have returned exactly these
// detections, which it can only have done from the same decoded pictures.
func verifyServed(in *input, session int, payloads [][]byte, served [][]detect.Detection, aux *tracer, chk *checker) error {
	side, err := newServerSide(in)
	if err != nil {
		return err
	}
	for i, payload := range payloads {
		chk.attempt(1)
		root := aux.begin(0, "bench", "verify", session, i)
		_, dets, err := side.handle(aux, root, session, i, payload)
		aux.end(root)
		if err != nil {
			chk.fail("%s frame %d: local decode of the uploaded bitstream: %v", in.profile.Name, i, err)
			continue
		}
		if !sameDetections(edge.ToWire(served[i]), dets) {
			chk.fail("%s frame %d: server detections differ from a local decode + detect of the same bitstream", in.profile.Name, i)
		}
	}
	return nil
}

// liveState is what set-up leaves for live_lockstep's timed passes.
type liveState struct {
	ins []*input
	srv *edgeServer
	// payloads of the warm-up sessions, for the decoder alloc count.
	refs []*clipRef
}

// setupLive renders the clips, starts the server and runs one warm-up
// lock-step session per clip — the server renders and caches its reference
// clips — whose results are verified against a local decode.
func setupLive(o *options, set int, chk *checker, aux *tracer) (*liveState, error) {
	st := &liveState{ins: renderInputs(o.seed, set, o.clipSeconds(), aux)}
	srv, err := startServer(nil)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	for i, in := range st.ins {
		payloads, served, err := lockstepClip(srv.addr, i, in, nil, chk, &agentTotals{}, true)
		if err == nil {
			err = verifyServed(in, i, payloads, served, aux, chk)
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
		up := make([]bool, len(payloads))
		for k := range up {
			up[k] = true
		}
		st.refs = append(st.refs, &clipRef{payloads: payloads, uploaded: up})
	}
	return st, nil
}

// runLiveLockstep is live_lockstep: the whole system over loopback TCP, one
// session at a time. Each pass is phase A (edge.Client.Run per clip: fps,
// allocations, mAP) and phase B (the benchmark's lock-step loop per clip:
// per-frame response time and payload size, which edge.Client does not
// expose without telemetry).
func runLiveLockstep(o *options) (*result, error) {
	chk := &checker{}
	res := &result{Workload: wlLiveLockstep, Traced: o.trace}
	var aux *tracer
	if o.trace {
		aux = newTracer(wlLiveLockstep + ".setup")
	}
	var st *liveState
	tot, bestFrames, bestSessions := &agentTotals{}, &bestOf{}, &bestOf{}
	var passFPS, passMAP []float64
	var mallocs uint64
	var allocKB float64
	framesA := 0
	setups, err := o.measure(func(set int) error {
		s, err := setupLive(o, set, chk, aux)
		if err != nil {
			return err
		}
		if set == 0 {
			st = s
			return nil
		}
		return s.srv.stop()
	}, func() error {
		a, err := st.phaseA(chk)
		if err != nil {
			return err
		}
		bestSessions.fold(a.sessionMs)
		passFPS, passMAP = append(passFPS, a.fps), append(passMAP, a.mAP)
		mallocs, allocKB, framesA = mallocs+a.mallocs, allocKB+a.allocKB, framesA+totalFrames(st.ins)
		return st.phaseB(nil, chk, tot, bestFrames)
	})
	if st != nil {
		defer st.srv.stop()
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		return tracedLive(o, st, chk, res, aux)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	p50, p90, err := frameMetrics(wlLiveLockstep, o, bestFrames)
	if err != nil {
		return nil, err
	}
	res.EndToEnd = map[string]float64{
		"fps":            float64(totalFrames(st.ins)) / (sumOf(bestSessions.ms) / 1000),
		"frame_ms_p50":   p50,
		"frame_ms_p90":   p90,
		"allocs_frame":   float64(mallocs) / float64(framesA),
		"alloc_kb_frame": allocKB / float64(framesA),
		"kbit_frame":     float64(tot.bits) / 1000 / float64(tot.frames),
		"map":            median(passMAP),
		"live_heap_mb":   float64(ms.HeapInuse) / (1 << 20),
		"setup_s":        median(setups),
	}
	res.Info = map[string]float64{
		"passes": float64(len(passFPS)), "frames_per_pass": float64(2 * totalFrames(st.ins)),
		"fps_wall": median(passFPS), "frame_ms_wall_p50": median(tot.frameMs), "frame_ms_wall_p99": pct(tot.frameMs, 0.99),
		"frame_ms_samples": float64(len(bestFrames.ms)), "lockstep_fps": bestFrames.perSecond(),
	}
	res.finish(chk)
	return res, nil
}

// phaseB runs the benchmark's lock-step session over every clip and folds the
// frames' response times into best.
func (st *liveState) phaseB(tr *tracer, chk *checker, tot *agentTotals, best *bestOf) error {
	first := len(tot.frameMs)
	for i, in := range st.ins {
		if _, _, err := lockstepClip(st.srv.addr, i, in, tr, chk, tot, false); err != nil {
			return err
		}
	}
	best.fold(tot.frameMs[first:])
	return nil
}

// clientPass is what one phase A pass measured.
type clientPass struct {
	fps, mAP  float64
	sessionMs []float64 // wall time of each clip's edge.Client.Run
	mallocs   uint64
	allocKB   float64
}

// phaseA runs edge.Client.Run over every clip: the pass's frames per wall
// second, each session's wall time, the mAP of what the clients hold, and the
// process's heap allocations meanwhile (agent, client and server together).
func (st *liveState) phaseA(chk *checker) (*clientPass, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	held := make([][][]detect.Detection, len(st.ins))
	a := &clientPass{}
	start := time.Now()
	for i, in := range st.ins {
		t0 := time.Now()
		var err error
		if held[i], err = clientRun(st.srv.addr, in, chk); err != nil {
			return nil, err
		}
		a.sessionMs = append(a.sessionMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	a.fps, a.mAP = float64(totalFrames(st.ins))/wall.Seconds(), mapOf(st.ins, held)
	a.mallocs, a.allocKB = ms1.Mallocs-ms0.Mallocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024
	return a, nil
}

// tracedLive alternates, for the run's budget, an untraced pass (phase A and
// an untraced phase B) and a traced phase B: spans around ProcessFrame, the
// frame write and the wait for the result, with the shadow decomposition
// replaying every frame for the agent's layer split.
func tracedLive(o *options, st *liveState, chk *checker, res *result, aux *tracer) (*result, error) {
	tr := newTracer(wlLiveLockstep)
	plain, traced := &agentTotals{}, &agentTotals{}
	plainBest, tracedBest, bestSessions := &bestOf{}, &bestOf{}, &bestOf{}
	passes := 0
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || passes == 0 {
		a, err := st.phaseA(chk)
		if err != nil {
			return nil, err
		}
		bestSessions.fold(a.sessionMs)
		if err := st.phaseB(nil, chk, plain, plainBest); err != nil {
			return nil, err
		}
		if err := st.phaseB(tr, chk, traced, tracedBest); err != nil {
			return nil, err
		}
		passes++
	}
	serverMs := traced.serverMs

	pl := map[string]float64{}
	ls := newLayerSamples(tr, aux)
	spanMs := sumOf(traced.frameMs)
	fillLayerTimes(pl, ls, spanMs, agentLayerKeys)
	fillAgentContent(pl, traced, spanMs)
	fillServerSide(pl, traced)
	fillGlue(pl, traced.glueMs, spanMs)
	await := ls.sum("edge.await")
	pl["edge.server_share"] = serverMs / spanMs
	pl["edge.wire_share"] = (await - serverMs) / spanMs
	pl["edge.nack_share"] = float64(plain.outages+traced.outages) / float64(plain.frames+traced.frames)
	pl["edge.client_run_fps"] = float64(totalFrames(st.ins)) / (sumOf(bestSessions.ms) / 1000)
	pl["bench.layer_coverage"] = (ls.sum("core.process", "edge.frame_write") + await) / spanMs
	pl["bench.trace_overhead_share"] = 1 - tracedBest.perSecond()/plainBest.perSecond()
	pl["codec.decode_allocs_frame"] = decodeAllocs(st.ins, st.refs)
	zeroMissing(pl)
	res.PerLayer = pl
	res.Info = map[string]float64{
		"passes": float64(passes), "core.process_ms": median(ls.of("core.process")),
		"core.process_share": ls.sum("core.process") / spanMs,
		"edge.server_ms":     serverMs / float64(traced.frames), "edge.wire_overhead_ms": (await - serverMs) / float64(traced.frames),
	}
	res.finish(chk)
	o.keepTrace(aux, tr)
	return res, nil
}
