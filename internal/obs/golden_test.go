package obs

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The exposition goldens under testdata/ were generated at commit 0b3b178
// (six registry maps, separate plain and labeled exposition loops) by
// copying this file into that checkout and running
// go test ./internal/obs -run ExpositionGolden -update-golden, so they pin
// the wire formats across the one-family refactor; a family deleted since
// lost only its "# TYPE" block. Regenerate only for an intentional format
// change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exposition_*.golden")

// expositionScript drives plain and labeled counters, gauges and histograms
// (including an overflow bucket, a cardinality fold and a never-used
// labeled family) plus an SLO window through one recorder and returns
// /metrics and /debug/slo.
func expositionScript(t *testing.T) (metrics, slo []byte) {
	t.Helper()
	rec := NewRecorder(8)
	reg := rec.Registry()

	rec.Counter(MetricFrames).Add(12)
	rec.Counter("zero_total")
	rec.Gauge(GaugeBWEstimate).Set(2.5e6)
	custom := reg.Histogram("custom_seconds", []float64{0.5, 0.1, 2})
	for _, v := range []float64{0.05, 0.3, 0.3, 1.5, 9} {
		custom.Observe(v)
	}

	frames := rec.LabeledCounter(MetricEdgeSessionFrames, SessionLabel)
	for i := 0; i < 70; i++ { // 64 distinct values, then six folds
		frames.With(fmt.Sprintf("sess-%02d", i)).Add(int64(i + 1))
	}
	frames.With("sess-03").Inc()                             // an established value past the fold
	rec.LabeledCounter(MetricEdgeSessionNacks, SessionLabel) // never used: not exposed
	reg.LabeledGauge("queue_depth", "stage").With("decode").Set(3)
	reg.LabeledGauge("queue_depth", "stage").With("detect").Set(0.25)
	for _, s := range []string{"b", "a"} {
		h := rec.LabeledHistogram(StageEdgeSessionDecode, SessionLabel).With(s)
		for i := 0; i < 10; i++ {
			h.Observe(0.001 * float64(i+1))
		}
	}
	reg.LabeledHistogram("custom_labeled_seconds", "site", []float64{1, 0.25}).With(`ed"ge`).Observe(0.5)

	for i := 0; i < 30; i++ {
		rec.ObserveSLO("sess-a", SLOSample{LatencySec: 0.01 * float64(i+1), FGShare: 0.01 * float64(i), Outage: i%10 == 0})
		rec.ObserveSLO("sess-b", SLOSample{LatencySec: -1, FGShare: -1})
	}

	h := rec.Handler()
	get := func(path string) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		return w.Body.Bytes()
	}
	metrics = get("/metrics")
	slo = get("/debug/slo")
	return metrics, slo
}

// typeBlocks splits a Prometheus page into its "# TYPE" blocks, sorted, so
// two pages compare equal when they carry the same families with
// byte-identical sample lines in any family order.
func typeBlocks(page []byte) []string {
	var blocks []string
	for _, b := range strings.Split(string(page), "# TYPE ") {
		if b != "" {
			blocks = append(blocks, "# TYPE "+b)
		}
	}
	sort.Strings(blocks)
	return blocks
}

func TestExpositionGolden(t *testing.T) {
	metrics, slo := expositionScript(t)
	files := []struct {
		name string
		got  []byte
	}{
		{"exposition_metrics.golden", metrics},
		{"exposition_slo.golden", slo},
	}
	for _, f := range files {
		path := filepath.Join("testdata", f.name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if f.name == "exposition_metrics.golden" {
			g, w := typeBlocks(f.got), typeBlocks(want)
			if strings.Join(g, "") != strings.Join(w, "") {
				t.Errorf("/metrics families differ from %s\n got:\n%s\nwant:\n%s", path, strings.Join(g, ""), strings.Join(w, ""))
			}
			continue
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s not byte-identical\n got:\n%s\nwant:\n%s", path, f.got, want)
		}
	}
}
