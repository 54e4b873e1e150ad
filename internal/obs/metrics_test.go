package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Get-or-create races on the same names deliberately.
			c := reg.Counter("c")
			g := reg.Gauge("g")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(id))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if v := reg.Gauge("g").Value(); v < 0 || v >= workers {
		t.Errorf("gauge = %v, want one of the worker ids", v)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4, 5})
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%6) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	// Each worker observed 0.5+1.5+...+5.5 repeated perWorker/6 times...
	// simpler: the sum of one worker's observations.
	oneWorker := 0.0
	for i := 0; i < perWorker; i++ {
		oneWorker += float64(i%6) + 0.5
	}
	want := oneWorker * workers
	if got := h.Sum(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	// 20 linear buckets over [0, 1); a uniform sample's quantiles must be
	// recovered to within one bucket width.
	bounds := make([]float64, 20)
	for i := range bounds {
		bounds[i] = float64(i+1) / 20
	}
	h := NewHistogram(bounds)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Observe(float64(i) / n)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.50}, {0.95, 0.95}, {0.99, 0.99}, {0.10, 0.10},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 0.05 {
			t.Errorf("Quantile(%v) = %v, want %v ± 0.05", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(10) // overflow bucket
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow-only quantile = %v, want highest bound 2", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	rec := NewRecorder(4)
	rec.Counter(MetricFrames).Add(7)
	rec.Gauge(GaugeBWEstimate).Set(2e6)
	rec.Histogram(StageFrame).Observe(0.003)
	var sb strings.Builder
	if err := rec.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dive_frames_total counter",
		"dive_frames_total 7",
		"# TYPE netsim_bw_estimate_bps gauge",
		"netsim_bw_estimate_bps 2e+06",
		"# TYPE dive_frame_seconds histogram",
		`dive_frame_seconds_bucket{le="+Inf"} 1`,
		"dive_frame_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if d := r.StartStage("x").End(); d != 0 {
		t.Errorf("nil recorder stage duration = %v, want 0", d)
	}
	r.RecordJournal(JournalRecord{})
	r.AmendJournalFrame(0, func(*JournalRecord) { t.Error("amend ran on nil recorder") })
	if r.Journal().Total() != 0 || r.Spans().Total() != 0 || r.FrameRecords() != nil {
		t.Error("nil recorder holds records")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil recorder snapshot not empty")
	}
	if r.Handler() == nil {
		t.Error("nil recorder handler is nil, want a 503-serving handler")
	}
}

func TestRegistryIdentity(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("same-name counters are distinct")
	}
	h1 := reg.Histogram("h", []float64{1, 2})
	h2 := reg.Histogram("h", []float64{5, 6, 7})
	if h1 != h2 {
		t.Error("same-name histograms are distinct")
	}
}

func TestSnapshotQuantiles(t *testing.T) {
	rec := NewRecorder(4)
	h := rec.Histogram(StageEncode)
	for i := 0; i < 1000; i++ {
		h.Observe(0.004) // within the 2.5–5 ms bucket
	}
	s := rec.Snapshot()
	hs, ok := s.Histograms[StageEncode]
	if !ok {
		t.Fatal("snapshot missing encode histogram")
	}
	if hs.Count != 1000 {
		t.Errorf("count = %d", hs.Count)
	}
	if hs.P50 < 0.0025 || hs.P50 > 0.005 {
		t.Errorf("p50 = %v, want within the 2.5–5 ms bucket", hs.P50)
	}
}
