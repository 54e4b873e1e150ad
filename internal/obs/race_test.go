package obs

import (
	"io"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// Concurrency coverage for the read paths that run while writers are hot:
// a live scrape (/metrics, /debug/spans) races observation on every frame.
// These tests are meaningful under -race (the `race` Make target).

func TestHistogramObserveConcurrentWithReads(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", DefaultDurationBuckets)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(seed*i%100) / 1000)
				}
			}
		}(w + 1)
	}
	for i := 0; i < 200; i++ {
		_ = h.Quantile(0.99)
		_ = h.Count()
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestLabeledFamilyConcurrentCreateAndIterate(t *testing.T) {
	reg := NewRegistry()
	fam := reg.LabeledCounter("sess_total", "session")
	hfam := reg.LabeledHistogram("sess_lat", "session", DefaultDurationBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := "s" + strconv.Itoa((w*500+i)%80) // crosses the overflow bound
				fam.With(v).Inc()
				hfam.With(v).Observe(0.01)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		fam.Each(func(string, *Counter) {})
		hfam.Each(func(string, *Histogram) {})
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
			break
		}
		_ = reg.Inventory()
	}
	wg.Wait()
	total := int64(0)
	fam.Each(func(_ string, c *Counter) { total += c.Value() })
	if total != 2000 {
		t.Fatalf("counted %d increments, want 2000", total)
	}
}

func TestSpansEndpointConcurrentWithRecording(t *testing.T) {
	rec := NewRecorder(64)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ctx := rec.StartTrace(i)
				rec.RecordSpan(ctx, "encode", "agent", float64(i)*0.01, 0.005)
				rec.RecordJournal(JournalRecord{Frame: i})
			}
		}
	}()
	for i := 0; i < 50; i++ {
		resp, err := srv.Client().Get(srv.URL + "/debug/spans")
		if err != nil {
			t.Fatal(err)
		}
		spans, err := ReadJSONL[SpanRecord](resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		for _, s := range spans {
			if s.Name != "encode" || s.Site != "agent" {
				t.Fatalf("scrape %d: corrupt span %+v", i, s)
			}
		}
	}
	close(stop)
	wg.Wait()
}
