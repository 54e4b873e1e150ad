package main

import "slices"

// layerSamples pools the self times (ms) of the spans of a traced run, keyed
// "layer.name". run holds the spans of the workload's own loop; aux those of
// set-up and verification. Times come from wherever the layer ran in this
// run — the loop if it ran there, else set-up — while shares count only the
// loop, so a layer the timed loop bypasses has a time and a share of 0.
type layerSamples struct {
	run, aux map[string][]float64
}

func newLayerSamples(run, aux *tracer) *layerSamples {
	ls := &layerSamples{run: map[string][]float64{}, aux: map[string][]float64{}}
	if run != nil {
		ls.run = layerTimes(run.spans)
	}
	if aux != nil {
		ls.aux = layerTimes(aux.spans)
	}
	return ls
}

func (ls *layerSamples) of(key string) []float64 {
	if v := ls.run[key]; len(v) > 0 {
		return v
	}
	return ls.aux[key]
}

// sum is the layer's summed self time inside the workload's loop.
func (ls *layerSamples) sum(keys ...string) float64 {
	s := 0.0
	for _, k := range keys {
		for _, v := range ls.run[k] {
			s += v
		}
	}
	return s
}

// agentLayerKeys are the spans of the shadow decomposition, in call order;
// handlerKeys those of the server's work on one frame.
var (
	agentLayerKeys = []string{
		"codec.motion", "mvfield.field", "mvfield.rotation", "mvfield.foe", "core.foreground",
		"core.ave", "netsim.estimate", "codec.quantize", "codec.emit",
	}
	handlerKeys = []string{"edge.frame_decode", "codec.decode", "detect.detect", "edge.result_encode"}
)

// fillLayerTimes writes the time metrics every traced run reports, and the
// shares of spanMs (the workload's summed frame span) that the layers inside
// that span account for. inSpan lists their span keys: a layer the traced
// pass runs beside the frame span, untimed, has a time but no share.
func fillLayerTimes(pl map[string]float64, ls *layerSamples, spanMs float64, inSpan []string) {
	for _, m := range []struct{ metric, key string }{
		{"world.render_ms", "world.render"},
		{"codec.motion_ms", "codec.motion"},
		{"codec.quantize_ms", "codec.quantize"},
		{"codec.emit_ms", "codec.emit"},
		{"mvfield.field_ms", "mvfield.field"},
		{"mvfield.rotation_ms", "mvfield.rotation"},
		{"mvfield.foe_ms", "mvfield.foe"},
		{"core.foreground_ms", "core.foreground"},
		{"codec.decode_ms", "codec.decode"},
		{"detect.detect_ms", "detect.detect"},
	} {
		pl[m.metric] = median(ls.of(m.key))
	}
	for _, m := range []struct{ metric, key string }{
		{"codec.motion_ms_p90", "codec.motion"},
		{"codec.quantize_ms_p90", "codec.quantize"},
		{"codec.emit_ms_p90", "codec.emit"},
		{"core.foreground_ms_p90", "core.foreground"},
		{"codec.decode_ms_p90", "codec.decode"},
	} {
		pl[m.metric] = pct(ls.of(m.key), 0.90)
	}
	for _, m := range []struct{ metric, key string }{
		{"edge.frame_encode_us", "edge.frame_encode"},
		{"edge.frame_decode_us", "edge.frame_decode"},
		{"edge.result_encode_us", "edge.result_encode"},
		{"edge.result_decode_us", "edge.result_decode"},
	} {
		pl[m.metric] = median(ls.of(m.key)) * 1000
	}
	share := func(keys ...string) float64 {
		s := 0.0
		for _, k := range keys {
			if slices.Contains(inSpan, k) {
				s += ls.sum(k)
			}
		}
		return s / spanMs
	}
	pl["codec.motion_share"] = share("codec.motion")
	pl["codec.quantize_share"] = share("codec.quantize")
	pl["codec.emit_share"] = share("codec.emit")
	pl["mvfield.share"] = share("mvfield.field", "mvfield.rotation", "mvfield.foe")
	pl["core.foreground_share"] = share("core.foreground")
	pl["core.track_share"] = share("core.track")
	pl["codec.decode_share"] = share("codec.decode")
	pl["detect.share"] = share("detect.detect")
}

// fillAgentContent writes what a traced agent pass observed about the
// content and the link. spanMs is the workload's summed frame span when the
// agent runs inside its loop, 0 when it ran in set-up only.
func fillAgentContent(pl map[string]float64, t *agentTotals, spanMs float64) {
	n := float64(max(t.frames, 1))
	pl["codec.iframe_ms"] = median(t.iframeMs)
	pl["codec.base_qp_mean"] = float64(t.baseQP) / n
	pl["core.fg_fraction_mean"] = t.fgFraction / n
	pl["core.moving_share"] = float64(t.moving) / n
	pl["netsim.outage_share"] = float64(t.outages) / n
	pl["netsim.queue_delay_p90"] = pct(t.queueMs, 0.90)
	pl["codec.iframe_share"] = 0
	if spanMs > 0 {
		pl["codec.iframe_share"] = sumOf(t.iframeMs) / spanMs
	}
}

// fillServerSide writes what the server side found behind the uploaded
// frames of t: detections per frame, and how far the decoder's picture was
// from the encoder's own.
func fillServerSide(pl map[string]float64, t *agentTotals) {
	n := float64(max(t.uploaded, 1))
	pl["detect.dets_frame"] = float64(t.dets) / n
	pl["codec.drift_mse"] = t.driftSum / n
}

// fillGlue writes the glue the shadow decomposition cannot name: per frame,
// the real ProcessFrame less the decomposed calls, and its share of spanMs.
func fillGlue(pl map[string]float64, glueMs []float64, spanMs float64) {
	pl["core.glue_ms"] = median(glueMs)
	pl["core.glue_share"] = sumOf(glueMs) / spanMs
}

// zeroMissing gives every per-layer metric the run did not set the value 0:
// the layer is not on this workload's path.
func zeroMissing(pl map[string]float64) {
	for _, s := range perLayerSpecs {
		if _, ok := pl[s.Name]; !ok {
			pl[s.Name] = 0
		}
	}
}
