package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// jsonlHandler serves a record stream as JSONL, oldest first — the one
// handler behind every /debug/* stream endpoint.
func jsonlHandler[T any](snapshot func() []T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		WriteJSONL(w, snapshot())
	})
}

// Handler returns the telemetry HTTP surface. Its endpoints form one route
// table, from which both the dispatch and the index at / are driven, so the
// index lists exactly the paths that answer:
//
//	/metrics       Prometheus text exposition of every metric (including
//	               per-session labeled series)
//	/debug/frames  recent frame-lifecycle records as JSONL: the journal
//	               joined with the agent spans (FrameRecords)
//	/debug/journal recent per-frame decision-journal records as JSONL
//	/debug/spans   recent frame-trace spans as JSONL
//	/debug/slo     per-session SLO status with error-budget burn rates
//	/debug/runtime point-in-time RuntimeStats JSON (live heap, GC pause p99,
//	               goroutines) — what divedoctor's gc-pressure follower
//	               polls
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
	var paths []string
	mount := func(path string, h http.Handler) {
		mux.Handle(path, h)
		paths = append(paths, path)
	}
	mount("/metrics", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Refresh SLO gauges so scraped burn rates reflect the window at
		// scrape time, not the last /debug/slo hit.
		r.slo.Status()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.reg.WritePrometheus(w)
	}))
	mount("/debug/frames", jsonlHandler(r.FrameRecords))
	mount("/debug/journal", jsonlHandler(r.journal.Snapshot))
	mount("/debug/spans", jsonlHandler(r.spans.Snapshot))
	mount("/debug/slo", r.slo.Handler())
	mount("/debug/runtime", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		data, err := json.Marshal(r.UpdateRuntimeGauges())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	}))
	mount("/debug/pprof/", http.HandlerFunc(pprof.Index))
	// Below /debug/pprof/, which the index lists: the profiles pprof.Index
	// does not serve itself.
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Everything else: the index at /, 404 below it.
	sort.Strings(paths)
	index := []byte("DiVE telemetry\n\n" + strings.Join(paths, "\n") + "\n")
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(index)
	})
	return mux
}
