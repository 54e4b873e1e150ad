package obs

import "testing"

func TestCollectRuntimeStats(t *testing.T) {
	st := CollectRuntimeStats()
	if st.HeapLiveBytes == 0 {
		t.Fatal("heap live bytes = 0")
	}
	if st.Goroutines < 1 {
		t.Fatalf("goroutines = %d", st.Goroutines)
	}
	if st.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs = %d", st.GOMAXPROCS)
	}
}

func TestUpdateRuntimeGauges(t *testing.T) {
	rec := NewRecorder(8)
	st := rec.UpdateRuntimeGauges()
	if got := rec.Gauge(GaugeGoHeapLiveBytes).Value(); got != float64(st.HeapLiveBytes) {
		t.Fatalf("heap gauge = %g, stats = %d", got, st.HeapLiveBytes)
	}
	if got := rec.Gauge(GaugeGoGoroutines).Value(); got != float64(st.Goroutines) {
		t.Fatalf("goroutine gauge = %g, stats = %d", got, st.Goroutines)
	}
	if got := rec.Gauge(GaugeGoGCPauseP99).Value(); got != st.GCPauseP99Sec {
		t.Fatalf("GC pause gauge = %g, stats = %g", got, st.GCPauseP99Sec)
	}
	// Nil recorder: still collects, publishes nowhere.
	var nilRec *Recorder
	if st := nilRec.UpdateRuntimeGauges(); st.Goroutines < 1 {
		t.Fatal("nil recorder collection failed")
	}
}
