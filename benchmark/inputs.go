package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/edge"
	"dive/internal/imgx"
	"dive/internal/metrics"
	"dive/internal/netsim"
	"dive/internal/sim"
	"dive/internal/world"
)

const (
	// clipSeconds is the length of each rendered clip. Three clips of 6 s
	// (72 + 96 + 60 = 228 frames a pass) keep one run — three set-ups and at
	// least three timed passes — near 28 s on 2 vCPUs: the driver's time cap
	// leaves 37 s for each of its 92 runs.
	clipSeconds = 6.0
	// quickClipSeconds is the clip length of the -quick smoke go test runs.
	quickClipSeconds = 1.0
	// seedStride separates the clip seeds of neighbouring run seeds.
	seedStride = 100
	// propDelay is the simulated link's propagation delay, as in the
	// repository's experiments.
	propDelay = 0.012
)

// input is one rendered clip with what every workload needs to judge it.
type input struct {
	profile world.Profile
	seed    int64
	clip    *world.Clip
	// oracle is the detector on the raw frames, the paper's ground truth.
	oracle [][]detect.Detection
}

// renderInputs renders one set of three clips from the seed alone: nuScenes-,
// RobotCar- and KITTI-like. A run sets up several times (setup_s is the
// median) and each set-up renders its own set, so no set-up's work is thrown
// away: kbit_frame and map, which depend on content alone, are taken over all
// the sets. Clip seeds are seed·seedStride + 3·set + i, so that two runs
// whose seeds differ share no clip, however close the seeds. With a tracer it
// renders frame by frame to time each one.
func renderInputs(seed int64, set int, seconds float64, tr *tracer) []*input {
	profiles := []world.Profile{world.NuScenesLike(), world.RobotCarLike(), world.KITTILike()}
	ins := make([]*input, len(profiles))
	for i, p := range profiles {
		p.ClipDuration = seconds
		in := &input{profile: p, seed: seed*seedStride + int64(set*len(profiles)+i)}
		if tr == nil {
			in.clip = world.GenerateClip(p, in.seed)
		} else {
			in.clip = renderTraced(p, in.seed, i, tr)
		}
		in.oracle = sim.OracleDetections(in.clip, sim.NewEnv(in.seed))
		ins[i] = in
	}
	return ins
}

// renderTraced is world.GenerateClip with a span around each frame.
func renderTraced(p world.Profile, seed int64, session int, tr *tracer) *world.Clip {
	src := world.NewClipSource(p, seed)
	clip := &world.Clip{
		Profile: p.Name, FPS: p.FPS, W: p.W, H: p.H, Focal: src.Focal(),
		IMU: src.IMU(), Seed: seed,
	}
	for i := 0; i < src.NumFrames(); i++ {
		sp := tr.begin(0, "world", "render", session, i)
		frame, gt, pose := src.Frame(i)
		tr.end(sp)
		clip.Frames = append(clip.Frames, frame)
		clip.GT = append(clip.GT, gt)
		clip.Poses = append(clip.Poses, pose)
	}
	return clip
}

func totalFrames(ins []*input) int {
	n := 0
	for _, in := range ins {
		n += in.clip.NumFrames()
	}
	return n
}

// newLink builds the simulated uplink of an agent workload. clear is a
// constant 4 Mbps; tight fades around 1.2 Mbps and drops to nothing for one
// second in every six, from second three on. At 1.2 Mbps the intra frame
// forced after an outage still fits the link; at 0.8 Mbps it does not on some
// clips, a second outage follows the first, and how many clips of a seed do
// that moves fps and frame_ms_p90 more than any change to the code would.
func newLink(tight bool, seed int64) *netsim.Link {
	var trace netsim.Trace = netsim.ConstantTrace(netsim.Mbps(4))
	if tight {
		trace = &netsim.OutageTrace{
			Inner: &netsim.FadingTrace{Base: netsim.Mbps(1.2), Swing: 0.3, Period: 6, Jitter: 0.15, Seed: seed},
			Start: 3, Interval: 6, Duration: 1,
		}
	}
	return netsim.NewLink(trace, propDelay)
}

// mapOf is mAP@0.5 of per-clip detections against the oracle, over all the
// clips' frames as one set.
func mapOf(ins []*input, dets [][][]detect.Detection) float64 {
	var c content
	c.add(ins, dets, 0, 0)
	return c.mAP()
}

// content pools, over the set-ups of a run, what the metrics that depend on
// content alone are computed from.
type content struct {
	dets, oracle [][]detect.Detection
	bits         int64
	uploaded     int
}

// add folds in one set of clips: the detections held for each frame, and the
// bits of the frames uploaded.
func (c *content) add(ins []*input, dets [][][]detect.Detection, bits int64, uploaded int) {
	for i, in := range ins {
		c.dets = append(c.dets, dets[i]...)
		c.oracle = append(c.oracle, in.oracle...)
	}
	c.bits += bits
	c.uploaded += uploaded
}

func (c *content) mAP() float64 { return metrics.MAP(c.dets, c.oracle, 0.5) }

// kbit is the mean uplink payload per uploaded frame.
func (c *content) kbit() float64 { return float64(c.bits) / 1000 / float64(max(c.uploaded, 1)) }

// checker counts what was attempted and what failed a correctness check.
// Replay connections share one, hence the lock.
type checker struct {
	mu                sync.Mutex
	attempted, failed int
	notes             []string
}

// attempt counts n operations whose outcome is checked.
func (c *checker) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// fail records one failed operation with its reason (the first few are kept
// for the report).
func (c *checker) fail(format string, args ...interface{}) {
	c.mu.Lock()
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// serverSide is the edge server's work on one frame, called directly: the
// decoder and detector an edge.Server session runs, and — traced — the wire
// framing around them. Agent workloads use it untimed to feed detections back
// and to check the bitstream; server_replay's traced run uses it as the
// in-process shadow of the session handler.
type serverSide struct {
	dec      *codec.Decoder
	detector *detect.Detector
	in       *input
	buf      bytes.Buffer
	mr       *edge.MsgReader
}

func newServerSide(in *input) (*serverSide, error) {
	dec, err := codec.NewDecoder(codec.DefaultConfig(in.clip.W, in.clip.H))
	if err != nil {
		return nil, err
	}
	s := &serverSide{dec: dec, detector: detect.New(detect.DefaultConfig()), in: in}
	s.mr = edge.NewMsgReader(&s.buf)
	return s, nil
}

// handle decodes one uploaded frame and runs the detector on it, with the
// per-frame seed edge.Server and sim.ServerInference both use. Traced, the
// frame first goes through WriteFrame → MsgReader.Next → DecodeFrameMsg →
// SniffFrameType and the result through WriteResult → Next → DecodeResultMsg,
// all against one in-memory buffer.
func (s *serverSide) handle(tr *tracer, parent int32, session, idx int, payload []byte) (*imgx.Plane, []detect.Detection, error) {
	if tr != nil {
		sp := tr.begin(parent, "edge", "frame_encode", session, idx)
		err := edge.WriteFrame(&s.buf, &edge.FrameMsg{Index: idx, Bitstream: payload, SentNanos: time.Now().UnixNano()})
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin(parent, "edge", "frame_decode", session, idx)
		_, raw, err := s.mr.Next()
		var fm edge.FrameMsg
		if err == nil {
			fm, err = edge.DecodeFrameMsg(raw)
		}
		if err == nil {
			_, err = codec.SniffFrameType(fm.Bitstream)
		}
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		payload = fm.Bitstream
	}
	sp := tr.begin(parent, "codec", "decode", session, idx)
	df, err := s.dec.Decode(payload)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(parent, "detect", "detect", session, idx)
	dets := s.detector.Detect(df.Image, s.in.clip.Frames[idx], s.in.clip.GT[idx], s.in.seed^int64(idx*7919))
	tr.end(sp)
	if tr != nil {
		sp = tr.begin(parent, "edge", "result_encode", session, idx)
		err := edge.WriteResult(&s.buf, &edge.ResultMsg{Index: idx, Detections: edge.ToWire(dets)})
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin(parent, "edge", "result_decode", session, idx)
		_, raw, err := s.mr.Next()
		var rm edge.ResultMsg
		if err == nil {
			rm, err = edge.DecodeResultMsg(raw)
		}
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		if len(rm.Detections) != len(dets) {
			return nil, nil, fmt.Errorf("result round trip lost detections: %d of %d", len(rm.Detections), len(dets))
		}
	}
	return df.Image, dets, nil
}

// checksum is the fingerprint kept of each reference bitstream.
func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// sameDetections reports whether a wire result carries exactly dets.
func sameDetections(ws []edge.WireDetection, dets []detect.Detection) bool {
	if len(ws) != len(dets) {
		return false
	}
	for i, w := range edge.ToWire(dets) {
		if ws[i] != w {
			return false
		}
	}
	return true
}
