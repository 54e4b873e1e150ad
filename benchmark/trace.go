package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around calls into exported functions; spans of
// one frame share Session and Frame, which with the tracer's workload make
// the trace id "workload/session/frame".
type span struct {
	ID      int32
	Parent  int32 // 0 = root
	Name    string
	Layer   string
	Session int32
	Frame   int32
	Start   int64 // ns since the tracer was created
	End     int64
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, so untraced passes share code with traced ones.
// The lock is for server_replay, whose replay connections trace concurrently.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int32, layer, name string, session, frame int) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Session: int32(session), Frame: int32(frame),
		Start: int64(time.Since(t.epoch)),
	})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := time.Duration(now - s.Start)
	t.mu.Unlock()
	return d
}

// selfTimes returns, per span (indexed like spans), its duration minus the
// part of its interval its direct children cover. Children may overlap each
// other and may stick out of the parent; covered time is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerTimes folds a trace into per-frame self times in milliseconds, keyed
// "layer.name". Each span contributes one sample.
func layerTimes(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		key := s.Layer + "." + s.Name
		out[key] = append(out[key], float64(self[i])/1e6)
	}
	return out
}

// writeJSONL writes the spans of the tracers to path, one JSON object per
// line. The trace id is "workload/session/frame"; span ids are per workload.
func writeJSONL(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Trace   string `json:"trace"`
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent"`
		Layer   string `json:"layer"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			err = enc.Encode(line{
				Trace: fmt.Sprintf("%s/%d/%d", t.workload, s.Session, s.Frame),
				ID:    s.ID, Parent: s.Parent, Layer: s.Layer, Name: s.Name,
				StartNs: s.Start, EndNs: s.End,
			})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
