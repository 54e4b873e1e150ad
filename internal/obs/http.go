package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// RegisterDebug mounts an additional handler on the telemetry surface at
// path (e.g. "/debug/doctor"). Handlers registered after Handler() was
// called still take effect: the surface resolves them per request. A nil recorder ignores the registration.
func (r *Recorder) RegisterDebug(path string, h http.Handler) {
	if r == nil || path == "" || h == nil {
		return
	}
	r.debugMu.Lock()
	if r.debugExtra == nil {
		r.debugExtra = make(map[string]http.Handler)
	}
	r.debugExtra[path] = h
	r.debugMu.Unlock()
}

// jsonlHandler serves a record stream as JSONL, oldest first — the one
// handler behind every /debug/* stream endpoint.
func jsonlHandler[T any](snapshot func() []T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		WriteJSONL(w, snapshot())
	})
}

// jsonHandler serves one marshalled JSON document, or 500 when marshalling
// fails.
func jsonHandler(marshal func() ([]byte, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		data, err := marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
}

// Handler returns the telemetry HTTP surface. Its built-in endpoints and
// everything mounted via RegisterDebug form one route table, from which both
// the dispatch and the index at / are driven, so the index lists exactly the
// paths that answer:
//
//	/metrics       Prometheus text exposition of every metric (including
//	               per-session labeled series)
//	/debug/vars    JSON snapshot (counters, gauges, histogram quantiles)
//	/debug/frames  recent frame-lifecycle records as JSONL: the journal
//	               joined with the agent spans (FrameRecords)
//	/debug/journal recent per-frame decision-journal records as JSONL
//	/debug/spans   recent frame-trace spans as JSONL
//	/debug/slo     per-session SLO status with error-budget burn rates
//	/debug/runtime point-in-time RuntimeStats JSON (live heap, GC pause p99,
//	               cumulative allocation counters) — what divedoctor's
//	               gc-pressure follower polls
//	/debug/pprof/  the standard Go profiler endpoints
//
// A nil recorder returns a handler that answers every request with 503
// Service Unavailable, so callers can mount the surface unconditionally
// without panicking when telemetry is disabled.
func (r *Recorder) Handler() http.Handler {
	if r == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			http.Error(w, "telemetry disabled: no recorder installed", http.StatusServiceUnavailable)
		})
	}
	mux := http.NewServeMux()
	var builtin []string
	mount := func(path string, h http.Handler) {
		mux.Handle(path, h)
		builtin = append(builtin, path)
	}
	mount("/metrics", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Refresh SLO gauges so scraped burn rates reflect the window at
		// scrape time, not the last /debug/slo hit.
		r.slo.Status()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.reg.WritePrometheus(w)
	}))
	mount("/debug/vars", jsonHandler(r.SnapshotJSON))
	mount("/debug/frames", jsonlHandler(r.FrameRecords))
	mount("/debug/journal", jsonlHandler(r.journal.Snapshot))
	mount("/debug/spans", jsonlHandler(r.spans.Snapshot))
	mount("/debug/slo", r.slo.Handler())
	mount("/debug/runtime", jsonHandler(func() ([]byte, error) {
		data, err := json.Marshal(r.UpdateRuntimeGauges())
		return append(data, '\n'), err
	}))
	mount("/debug/pprof/", http.HandlerFunc(pprof.Index))
	// Below /debug/pprof/, which the index lists: the profiles pprof.Index
	// does not serve itself.
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Everything else: the RegisterDebug extras, resolved per request, then
	// the index.
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		r.debugMu.Lock()
		h := r.debugExtra[req.URL.Path]
		var paths []string
		if h == nil && req.URL.Path == "/" {
			paths = append(sortedKeys(r.debugExtra), builtin...)
		}
		r.debugMu.Unlock()
		switch {
		case h != nil:
			h.ServeHTTP(w, req)
		case req.URL.Path == "/":
			sort.Strings(paths)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write([]byte("DiVE telemetry\n\n" + strings.Join(paths, "\n") + "\n"))
		default:
			http.NotFound(w, req)
		}
	})
	return mux
}
