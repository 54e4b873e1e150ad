package main

import (
	"fmt"
	"runtime"
	"time"

	"dive/internal/codec"
	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/obs"
	"dive/internal/sim"
)

// encodeLatency is sim.DefaultLatencies().Encode: the simulated delay between
// capture and the frame being ready to send.
var encodeLatency = sim.DefaultLatencies().Encode

// driftCapMSE is the largest mean squared error allowed between the decoder's
// output and agent.Reconstructed() on one frame. It should be 0: the pair is
// meant to be bit-exact. It is not, at the commit that added this benchmark —
// with per-macroblock QP offsets and the deblocking filter both on (the
// agent's defaults), the encoder deblocks skipped macroblocks at baseQP+offset
// and the decoder, which never learns a skipped block's QP, at baseQP. The
// error stays below 4 on these workloads (codec.drift_mse reports its mean);
// a decoder that lost its reference reads in the hundreds, which is what
// this cap still catches. Set it to 0 once codec.drift_mse reads 0.
const driftCapMSE = 10.0

// clipRef is what the reference pass of one clip leaves behind: the
// fingerprint of every bitstream, the detections fed back to the agent, and
// what the agent ended up holding for each frame. Agent runs are
// deterministic, so later passes need no decoder: they replay the feedback
// and compare fingerprints.
type clipRef struct {
	crcs     []uint32
	bits     []int
	uploaded []bool
	iframe   []bool
	// fed[i] is the server result handed to OnDetections after frame i
	// (nil on outage frames and empty results).
	fed [][]detect.Detection
	// held[i] is the result the agent holds once frame i is final: the
	// server's detections, or the locally tracked ones on an outage frame.
	held [][]detect.Detection
	// payloads are kept for server_replay and the decoder alloc count.
	payloads [][]byte
}

// agentTotals accumulates the timed side of agent passes.
type agentTotals struct {
	frames   int
	frameMs  []float64 // one sample per frame: ProcessFrame + TrackLocally (live: capture → detections)
	mallocs  uint64
	allocKB  float64
	iframeMs []float64 // the frameMs samples of intra frames
	outages  int
	uploaded int
	bits     int64
	dets     int       // detections the server side returned
	driftSum float64   // Σ MSE(decoder output, agent.Reconstructed()) over uploaded frames
	serverMs float64   // live sessions: Σ ResultMsg.ServerMs
	queueMs  []float64 // simulated head-of-queue delay when each frame is ready
	glueMs   []float64 // live traced: real ProcessFrame − Σ shadow layer spans
	layerMs  []float64 // shadow passes: Σ layer spans of each frame
	// Content the agent decided on, for the per-layer report.
	moving     int
	baseQP     int
	fgFraction float64
}

// observe counts one processed frame: its time and what the agent decided.
func (t *agentTotals) observe(fr *core.FrameResult, frameMs float64) {
	t.frames++
	t.frameMs = append(t.frameMs, frameMs)
	if fr.Encoded.Type == codec.IFrame {
		t.iframeMs = append(t.iframeMs, frameMs)
	}
	t.baseQP += fr.Encoded.BaseQP
	if fr.Moving {
		t.moving++
	}
	if fr.Foreground != nil {
		t.fgFraction += fr.Foreground.Fraction()
	}
}

// agentPass is how one clip is run through the agent loop.
type agentPass struct {
	tight bool
	rec   *obs.Recorder
	// verify runs the server side (decode, detect, drift check against
	// core.Agent's reconstruction) after each uploaded frame; otherwise the
	// reference's detections are replayed.
	verify bool
	ref    *clipRef // nil: this is the reference pass
	tr     *tracer  // the pass's spans; nil on an untraced pass
	// shadow drives the shadow decomposition in place of core.Agent, for the
	// layer split; its bitstreams must have the reference's fingerprints.
	shadow bool
	chk    *checker
	tot    *agentTotals
}

// loopAgent is what the frame loop asks of an agent between frames:
// core.Agent, or the shadow decomposition standing in for it.
type loopAgent interface {
	ForceNextIFrame()
	OnTransmitComplete(start, end float64, bits int)
	OnDetections(dets []detect.Detection)
	LastDetections() []detect.Detection
}

// runAgentClip streams one clip through a fresh core.Agent over a fresh
// simulated link, in sim.DiVE.Run's serial order: ProcessFrame, TrackLocally
// (both timed), the head-of-queue outage rule, Link.Send on the virtual clock,
// OnTransmitComplete, then the server's detections. It returns the clip's
// reference when p.ref is nil, and nil otherwise.
func runAgentClip(p *agentPass, session int, in *input) (*clipRef, error) {
	clip := in.clip
	n := clip.NumFrames()
	cfg := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal)
	cfg.Seed = in.seed
	cfg.Codec.Workers = 1 // the numbers are per core
	cfg.Obs = p.rec
	var agent *core.Agent
	var shadow *shadowAgent
	var fb loopAgent
	var err error
	if p.shadow {
		shadow, err = newShadowAgent(cfg)
		fb = shadow
	} else {
		agent, err = core.NewAgent(cfg)
		fb = agent
	}
	if err != nil {
		return nil, err
	}
	link := newLink(p.tight, in.seed)
	var srv *serverSide
	if p.verify {
		if srv, err = newServerSide(in); err != nil {
			return nil, err
		}
	}
	ref := p.ref
	var out *clipRef
	if ref == nil {
		out = &clipRef{
			crcs: make([]uint32, n), bits: make([]int, n), uploaded: make([]bool, n), iframe: make([]bool, n),
			fed: make([][]detect.Detection, n), held: make([][]detect.Detection, n), payloads: make([][]byte, n),
		}
	}
	tot, tr := p.tot, p.tr

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, frame := range clip.Frames {
		p.chk.attempt(1)
		capture := float64(i) / clip.FPS
		root := tr.begin(0, "bench", "frame", session, i)

		var fr *core.FrameResult
		t0 := time.Now()
		if shadow != nil {
			var layers time.Duration
			if fr, layers, err = shadow.processFrame(tr, root, session, i, frame, capture); err == nil {
				sp := tr.begin(root, "core", "track", session, i)
				shadow.trackLocally(fr.RawField)
				layers += tr.end(sp)
				tot.layerMs = append(tot.layerMs, float64(layers.Nanoseconds())/1e6)
			}
		} else {
			sp := tr.begin(root, "core", "process", session, i)
			fr, err = agent.ProcessFrame(frame, capture)
			tr.end(sp)
			if err == nil {
				sp = tr.begin(root, "core", "track", session, i)
				agent.TrackLocally(fr.RawField)
				tr.end(sp)
			}
		}
		frameNs := time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("%s frame %d: %w", clip.Profile, i, err)
		}
		ef := fr.Encoded
		tot.observe(fr, float64(frameNs)/1e6)

		if (ef.NumBits+7)/8 != len(ef.Data) {
			p.chk.fail("%s frame %d: NumBits %d does not match %d payload bytes", clip.Profile, i, ef.NumBits, len(ef.Data))
		}
		if ref != nil && checksum(ef.Data) != ref.crcs[i] {
			who := "bitstream"
			if shadow != nil {
				who = "shadow decomposition bitstream"
			}
			p.chk.fail("%s frame %d: %s differs from the reference pass", clip.Profile, i, who)
		}
		if ref == nil {
			out.crcs[i], out.bits[i], out.payloads[i] = checksum(ef.Data), ef.NumBits, ef.Data
			out.iframe[i] = ef.Type == codec.IFrame
		}

		// Head-of-queue timer (sim.DiVE.Run): a queue that will not drain
		// inside the timeout is an outage — the frame is dropped, the cached
		// detections stand in for it and the next upload must be intra.
		ready := capture + encodeLatency
		queue := link.QueueDelay(ready)
		tot.queueMs = append(tot.queueMs, queue*1000)
		if queue > cfg.OutageTimeout {
			fb.ForceNextIFrame()
			tot.outages++
			if ref == nil {
				out.held[i] = fb.LastDetections()
			}
			tr.end(root)
			continue
		}
		sp := tr.begin(root, "netsim", "send", session, i)
		start, serialized, _ := link.Send(ready, ef.NumBits)
		tr.end(sp)
		fb.OnTransmitComplete(start, serialized, ef.NumBits)
		tot.uploaded++
		tot.bits += int64(ef.NumBits)

		var dets []detect.Detection
		if srv != nil {
			img, d, err := srv.handle(tr, root, session, i, ef.Data)
			if err != nil {
				p.chk.fail("%s frame %d: server side: %v", clip.Profile, i, err)
				tr.end(root)
				continue
			}
			// Drift: the decoder should reproduce the encoder's own
			// reconstruction, or every later P-frame is predicted from a
			// different picture than the agent thinks (see driftCapMSE).
			drift := imgx.MSE(img, agent.Reconstructed())
			tot.driftSum += drift
			if drift > driftCapMSE {
				p.chk.fail("%s frame %d: decoder output is %.1f MSE away from agent.Reconstructed()", clip.Profile, i, drift)
			}
			dets = d
			tot.dets += len(d)
		} else {
			dets = ref.fed[i]
		}
		if len(dets) > 0 {
			fb.OnDetections(dets)
		}
		if ref == nil {
			out.uploaded[i], out.fed[i], out.held[i] = true, dets, dets
		}
		tr.end(root)
	}
	runtime.ReadMemStats(&ms1)
	tot.mallocs += ms1.Mallocs - ms0.Mallocs
	tot.allocKB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	return out, nil
}

// checkAgainstSim runs sim.DiVE over the same clip, link and seed and
// requires the payloads of the reference pass: the benchmark-owned loop must
// be the loop the experiments use, not a variant of it.
func checkAgainstSim(in *input, ref *clipRef, chk *checker) error {
	scheme := &sim.DiVE{KeepPayloads: true, ConfigFn: func(c *core.AgentConfig) {
		c.Codec.Workers = 1
		c.Obs = nil
	}}
	res, err := scheme.Run(in.clip, newLink(false, in.seed), sim.NewEnv(in.seed))
	if err != nil {
		return fmt.Errorf("sim.DiVE: %w", err)
	}
	chk.attempt(1)
	for i, want := range res.Payloads {
		if checksum(want) != ref.crcs[i] {
			chk.fail("%s frame %d: payload differs from sim.DiVE.Run's", in.clip.Profile, i)
			break
		}
	}
	return nil
}

// agentState is what one set-up leaves for the timed passes of an agent
// workload.
type agentState struct {
	ins  []*input
	refs []*clipRef
}

// setupAgent renders clip set number set and runs the reference pass: the
// full loop with decoder, detector and drift check behind every uploaded
// frame. What the agent ended up holding, and the bits it uploaded, go to pool.
func setupAgent(o *options, set int, tight bool, chk *checker, aux *tracer, pool *content) (*agentState, *agentTotals, error) {
	st := &agentState{ins: renderInputs(o.seed, set, o.clipSeconds(), aux)}
	tot := &agentTotals{}
	held := make([][][]detect.Detection, len(st.ins))
	for i, in := range st.ins {
		p := &agentPass{tight: tight, verify: true, tr: aux, chk: chk, tot: tot}
		ref, err := runAgentClip(p, i, in)
		if err != nil {
			return nil, nil, err
		}
		st.refs = append(st.refs, ref)
		held[i] = ref.held
	}
	pool.add(st.ins, held, tot.bits, tot.uploaded)
	return st, tot, nil
}

// pass runs every clip once through the agent loop as p says, against the
// clips' references, and folds the pass's frame times into best. It returns
// the pass's frames per second of agent time.
func (st *agentState) pass(p agentPass, best *bestOf) (float64, error) {
	first := len(p.tot.frameMs)
	for i, in := range st.ins {
		p.ref = st.refs[i]
		if _, err := runAgentClip(&p, i, in); err != nil {
			return 0, err
		}
	}
	ms := p.tot.frameMs[first:]
	best.fold(ms)
	return float64(len(ms)) / (sumOf(ms) / 1000), nil
}

// frameMetrics are the timing metrics of a workload, from the least time each
// frame took over the passes.
func frameMetrics(name string, o *options, best *bestOf) (p50, p90 float64, err error) {
	if p90, err = percentile(best.ms, 0.90); err != nil && !o.quick {
		return 0, 0, fmt.Errorf("%s: frame_ms_p90: %w", name, err)
	}
	return median(best.ms), p90, nil
}

// runAgentWorkload is agent_clear and agent_tight: agent only, one core
// (Codec.Workers = 1), closed loop on the virtual clock.
func runAgentWorkload(o *options, name string) (*result, error) {
	tight := name == wlAgentTight
	chk := &checker{}
	res := &result{Workload: name, Traced: o.trace}
	var aux *tracer
	if o.trace {
		aux = newTracer(name + ".setup")
	}

	var st *agentState
	var pre *agentTotals
	pool := &content{}
	tot, best := &agentTotals{}, &bestOf{}
	var passFPS []float64
	setups, err := o.measure(func(set int) error {
		s, t, err := setupAgent(o, set, tight, chk, aux, pool)
		if set == 0 {
			st, pre = s, t
		}
		return err
	}, func() error {
		fps, err := st.pass(agentPass{tight: tight, chk: chk, tot: tot}, best)
		passFPS = append(passFPS, fps)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !tight {
		if err := checkAgainstSim(st.ins[0], st.refs[0], chk); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return tracedAgent(o, st, pre, tight, chk, res, aux)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	p50, p90, err := frameMetrics(name, o, best)
	if err != nil {
		return nil, err
	}
	n := float64(tot.frames)
	res.EndToEnd = map[string]float64{
		"fps":            best.perSecond(),
		"frame_ms_p50":   p50,
		"frame_ms_p90":   p90,
		"allocs_frame":   float64(tot.mallocs) / n,
		"alloc_kb_frame": tot.allocKB / n,
		"kbit_frame":     pool.kbit(),
		"map":            pool.mAP(),
		"live_heap_mb":   float64(ms.HeapInuse) / (1 << 20),
		"setup_s":        median(setups),
	}
	res.Info = map[string]float64{
		"passes": float64(len(passFPS)), "frames_per_pass": float64(totalFrames(st.ins)),
		"fps_wall": median(passFPS), "frame_ms_wall_p50": median(tot.frameMs), "frame_ms_wall_p99": pct(tot.frameMs, 0.99),
		"frame_ms_samples": float64(len(best.ms)),
		"outage_share":     float64(tot.outages) / n, "iframe_share_of_frames": float64(len(tot.iframeMs)) / n,
	}
	res.finish(chk)
	return res, nil
}

// tracedAgent alternates untraced and traced passes for the run's budget. A
// traced pass drives the shadow decomposition in place of the agent, with a
// span around every call into a layer; the untraced pass of the real agent
// beside it is the yardstick for what the layers leave unexplained (glue) and
// for tracing overhead. The server side ran, traced, behind every frame of
// set-up's reference pass (pre). agent_clear adds a third pass to each round,
// untraced under a telemetry recorder.
func tracedAgent(o *options, st *agentState, pre *agentTotals, tight bool, chk *checker, res *result, aux *tracer) (*result, error) {
	tr := newTracer(res.Workload)
	plain, traced, withObs := &agentTotals{}, &agentTotals{}, &agentTotals{}
	plainBest, tracedBest, layersBest, obsBest := &bestOf{}, &bestOf{}, &bestOf{}, &bestOf{}
	passes := 0
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || passes == 0 {
		if _, err := st.pass(agentPass{tight: tight, chk: chk, tot: plain}, plainBest); err != nil {
			return nil, err
		}
		first := len(traced.layerMs)
		if _, err := st.pass(agentPass{tight: tight, tr: tr, shadow: true, chk: chk, tot: traced}, tracedBest); err != nil {
			return nil, err
		}
		layersBest.fold(traced.layerMs[first:])
		if !tight {
			if _, err := st.pass(agentPass{tight: tight, rec: obs.NewRecorder(0), chk: chk, tot: withObs}, obsBest); err != nil {
				return nil, err
			}
		}
		passes++
	}

	pl := map[string]float64{}
	ls := newLayerSamples(tr, aux)
	spanMs := sumOf(traced.frameMs)
	fillLayerTimes(pl, ls, spanMs, append([]string{"core.track"}, agentLayerKeys...))
	fillAgentContent(pl, traced, spanMs)
	fillServerSide(pl, pre)
	// Glue is what the real agent's frame takes beyond the shadow's layer
	// spans, frame by frame, each side at the least of its repeats.
	glue := make([]float64, len(plainBest.ms))
	for i := range glue {
		glue[i] = plainBest.ms[i] - layersBest.ms[i]
	}
	fillGlue(pl, glue, sumOf(plainBest.ms))
	pl["core.allocs_frame"] = float64(plain.mallocs) / float64(plain.frames)
	pl["bench.layer_coverage"] = sumOf(layersBest.ms) / sumOf(plainBest.ms)
	pl["bench.trace_overhead_share"] = 1 - tracedBest.perSecond()/plainBest.perSecond()
	pl["codec.decode_allocs_frame"] = decodeAllocs(st.ins, st.refs)
	if !tight {
		pl["obs.agent_overhead_share"] = 1 - obsBest.perSecond()/plainBest.perSecond()
		pl["obs.allocs_frame_delta"] = float64(withObs.mallocs)/float64(withObs.frames) - pl["core.allocs_frame"]
	}
	zeroMissing(pl)
	res.PerLayer = pl
	res.Info = map[string]float64{
		"passes": float64(passes), "fps_untraced": plainBest.perSecond(), "fps_traced": tracedBest.perSecond(),
		"core.track_ms": median(ls.of("core.track")), "netsim.send_us": median(ls.of("netsim.send")) * 1000,
		// The layer spans' share of the traced passes' own frame time: unlike
		// bench.layer_coverage both sides come from the same pass, so a stall
		// cancels out and only a span lost or counted twice moves it.
		"span_coverage": sumOf(traced.layerMs) / spanMs,
	}
	res.finish(chk)
	o.keepTrace(aux, tr)
	return res, nil
}

// decodeAllocs counts the decoder's heap allocations per frame over the
// reference bitstreams, with a fresh decoder per clip as in a session.
func decodeAllocs(ins []*input, refs []*clipRef) float64 {
	var ms0, ms1 runtime.MemStats
	frames := 0
	var mallocs uint64
	for i, in := range ins {
		dec, err := codec.NewDecoder(codec.DefaultConfig(in.clip.W, in.clip.H))
		if err != nil {
			return 0
		}
		runtime.ReadMemStats(&ms0)
		for j, p := range refs[i].payloads {
			if !refs[i].uploaded[j] {
				continue
			}
			if _, err := dec.Decode(p); err != nil {
				return 0
			}
			frames++
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	return float64(mallocs) / float64(max(frames, 1))
}
