package main

// metricSpec names one metric: its unit, which direction is better, and (for
// end-to-end metrics) the share of the baseline median by which it may get
// worse before -compare calls it a regression. BENCHMARK.json at the root of
// the repository carries the same table for the driver; a test keeps the two
// equal.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlAgentClear   = "agent_clear"
	wlAgentTight   = "agent_tight"
	wlServerReplay = "server_replay"
	wlLiveLockstep = "live_lockstep"
)

var workloadSpecs = []workloadSpec{
	{wlAgentClear, "agent only on a clear 4 Mbps link: low QP, so motion search, foreground, RC, quantize and emit do all the work; edge and server layers do none"},
	{wlAgentTight, "same agent loop on a fading 1.2 Mbps link with outages: high QP, forced I-frames and local tracking, so a P-frame gain that costs the intra, RC or MOT path shows here"},
	{wlServerReplay, "server only: pre-encoded bitstreams replayed to a real edge.Server over loopback, so wire read, decoder, detector and ack do all the work; agent layers do none"},
	{wlLiveLockstep, "whole system over loopback TCP, one lock-step session at a time: agent and server each do part of the work, and a hand-off regression shows only here"},
}

// endToEndSpecs are reported, under the same names, by every workload. The
// bound of a counted metric is about twice the widest spread (interquartile
// range over the median, ten runs at ten seeds) it showed on any workload
// when the benchmark was written. The wall-clock metrics and map
// carry the 0.25 the driver allows at most: on a shared 2-vCPU box the former
// spread up to 21 % from run to run (live_lockstep), and map 14 % between
// seeds on agent_tight.
var endToEndSpecs = []metricSpec{
	{"fps", "1/s", "higher", 0.25},
	{"frame_ms_p50", "ms", "lower", 0.25},
	{"frame_ms_p90", "ms", "lower", 0.25},
	{"allocs_frame", "count", "lower", 0.12},
	{"alloc_kb_frame", "kB", "lower", 0.12},
	{"kbit_frame", "kbit", "lower", 0.06},
	{"map", "mAP", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerSpecs come from the traced run. A _ms or _us metric is the median
// self time of the layer's span per frame (p90 where named so); a _share is
// the layer's summed self time over the workload's summed frame span, 0 on a
// workload whose timed loop bypasses the layer.
var perLayerSpecs = []metricSpec{
	{"world.render_ms", "ms", "lower", 0},
	{"codec.motion_ms", "ms", "lower", 0},
	{"codec.motion_ms_p90", "ms", "lower", 0},
	{"codec.motion_share", "share", "lower", 0},
	{"codec.quantize_ms", "ms", "lower", 0},
	{"codec.quantize_ms_p90", "ms", "lower", 0},
	{"codec.quantize_share", "share", "lower", 0},
	{"codec.emit_ms", "ms", "lower", 0},
	{"codec.emit_ms_p90", "ms", "lower", 0},
	{"codec.emit_share", "share", "lower", 0},
	{"codec.iframe_ms", "ms", "lower", 0},
	{"codec.iframe_share", "share", "lower", 0},
	{"codec.base_qp_mean", "qp", "lower", 0},
	{"mvfield.field_ms", "ms", "lower", 0},
	{"mvfield.rotation_ms", "ms", "lower", 0},
	{"mvfield.foe_ms", "ms", "lower", 0},
	{"mvfield.share", "share", "lower", 0},
	{"core.foreground_ms", "ms", "lower", 0},
	{"core.foreground_ms_p90", "ms", "lower", 0},
	{"core.foreground_share", "share", "lower", 0},
	{"core.track_share", "share", "lower", 0},
	{"core.glue_ms", "ms", "lower", 0},
	{"core.glue_share", "share", "lower", 0},
	{"core.fg_fraction_mean", "share", "lower", 0},
	{"core.moving_share", "share", "higher", 0},
	{"core.allocs_frame", "count", "lower", 0},
	{"netsim.outage_share", "share", "lower", 0},
	{"netsim.queue_delay_p90", "sim_ms", "lower", 0},
	{"codec.decode_ms", "ms", "lower", 0},
	{"codec.decode_ms_p90", "ms", "lower", 0},
	{"codec.decode_share", "share", "lower", 0},
	{"codec.decode_allocs_frame", "count", "lower", 0},
	{"codec.drift_mse", "mse", "lower", 0},
	{"detect.detect_ms", "ms", "lower", 0},
	{"detect.share", "share", "lower", 0},
	{"detect.dets_frame", "count", "higher", 0},
	{"edge.frame_encode_us", "us", "lower", 0},
	{"edge.frame_decode_us", "us", "lower", 0},
	{"edge.result_encode_us", "us", "lower", 0},
	{"edge.result_decode_us", "us", "lower", 0},
	{"edge.server_share", "share", "lower", 0},
	{"edge.wire_share", "share", "lower", 0},
	{"edge.nack_share", "share", "lower", 0},
	{"edge.client_run_fps", "1/s", "higher", 0},
	{"obs.agent_overhead_share", "share", "lower", 0},
	{"obs.server_overhead_share", "share", "lower", 0},
	{"obs.allocs_frame_delta", "count", "lower", 0},
	{"bench.layer_coverage", "share", "higher", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
}

// runSeconds is the measuring time the driver passes as --seconds.
const runSeconds = 10
