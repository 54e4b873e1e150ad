package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// ringRec is the record the ring tests store: a frame number to amend by,
// its append order, and the op that last amended it (so two rings agree
// only if every amendment landed on the same record).
type ringRec struct {
	Frame   int `json:"frame"`
	Seq     int `json:"seq"`
	Amended int `json:"amended,omitempty"`
}

// ringModel states Ring's contract over a plain slice: keep the last cap
// records, AmendFrame back-scans for the most recent retained record of the
// frame.
type ringModel struct {
	cap   int
	recs  []ringRec
	total int
}

func (m *ringModel) append(r ringRec) {
	if m.recs = append(m.recs, r); len(m.recs) > m.cap {
		m.recs = m.recs[1:]
	}
	m.total++
}

func (m *ringModel) amendFrame(frame, op int) {
	for i := len(m.recs) - 1; i >= 0; i-- {
		if m.recs[i].Frame == frame {
			m.recs[i].Amended = op
			return
		}
	}
}

// ringHarness drives a Ring and the model with the same operations and
// compares them after each one.
type ringHarness struct {
	t     *testing.T
	ring  *Ring[ringRec]
	model ringModel
	op    int
}

func newRingHarness(t *testing.T, capacity int) *ringHarness {
	return &ringHarness{
		t:     t,
		ring:  NewRing(capacity, func(r *ringRec) int { return r.Frame }),
		model: ringModel{cap: capacity},
	}
}

func (h *ringHarness) check() {
	h.t.Helper()
	got := h.ring.Snapshot()
	if len(got) == 0 && len(h.model.recs) == 0 {
		got = h.model.recs
	}
	if !reflect.DeepEqual(got, h.model.recs) || h.ring.Total() != h.model.total {
		h.t.Fatalf("cap %d after op %d: ring %v total %d, model %v total %d",
			h.model.cap, h.op, got, h.ring.Total(), h.model.recs, h.model.total)
	}
}

func (h *ringHarness) append(frames ...int) {
	h.t.Helper()
	for _, f := range frames {
		h.op++
		rec := ringRec{Frame: f, Seq: h.model.total}
		h.ring.Append(rec)
		h.model.append(rec)
		h.check()
	}
}

func (h *ringHarness) amendFrame(frames ...int) {
	h.t.Helper()
	for _, f := range frames {
		h.op++
		h.ring.AmendFrame(f, func(r *ringRec) { r.Amended = h.op })
		h.model.amendFrame(f, h.op)
		h.check()
	}
}

func seq(from, to int) []int {
	var out []int
	for f := from; f <= to; f++ {
		out = append(out, f)
	}
	return out
}

// TestRingMatchesModel is the ring's contract, stated once: seeded random
// Append / AmendFrame sequences against the plain-slice model
// over every capacity from 1 to 64, with dense (+1), sparse (+2..5) and
// repeated (+0) frame numbers, well past wraparound. After every operation
// the retained contents, their order and Total must match — so the O(1)
// newest-minus-delta path and the back-scan amend the same record, evicted
// and never-recorded frames are no-ops, and an empty ring ignores amends.
func TestRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for capacity := 1; capacity <= 64; capacity++ {
		h := newRingHarness(t, capacity)
		h.amendFrame(0)
		frame := rng.Intn(10)
		// Per capacity one step mix: mostly dense, mostly sparse, or
		// repeat-heavy.
		mix := [][3]int{{90, 5, 5}, {30, 60, 10}, {40, 10, 50}}[capacity%3]
		for i := 0; i < 6*capacity+40; i++ {
			switch p := rng.Intn(100); {
			case p < 50:
				switch s := rng.Intn(100); {
				case h.model.total == 0:
				case s < mix[0]:
					frame++
				case s < mix[0]+mix[1]:
					frame += 2 + rng.Intn(4)
				}
				h.append(frame)
			case p < 60:
				h.amendFrame(frame) // the newest record, as the agent's feedback amends
			default:
				// Around the retained window: hits, gaps, evicted frames and
				// frames not recorded yet.
				h.amendFrame(frame + 2 - rng.Intn(capacity+8))
			}
		}
	}
}

// The scenarios the per-ring example tests spelled out by hand before there
// was one ring, as scripts through the same model.

func TestRingPartialFill(t *testing.T) { newRingHarness(t, 8).append(seq(0, 2)...) }
func TestRingWraparound(t *testing.T)  { newRingHarness(t, 8).append(seq(0, 19)...) }

func TestRingAmendNewestFrame(t *testing.T) {
	h := newRingHarness(t, 2)
	h.amendFrame(0) // empty: must not run
	h.append(seq(0, 4)...)
	h.amendFrame(4)
}

func TestJournalRingWraparound(t *testing.T) { newRingHarness(t, 4).append(seq(0, 9)...) }

func TestJournalAmendFrameFastPath(t *testing.T) {
	h := newRingHarness(t, 8)
	h.append(seq(0, 5)...)
	h.amendFrame(2, 5) // several slots behind the newest (the pipelined case), then the newest
}

func TestJournalAmendFrameAfterWraparound(t *testing.T) {
	h := newRingHarness(t, 4)
	h.append(seq(0, 9)...)
	h.amendFrame(3, 7) // evicted: no-op; retained after wrap
}

func TestJournalAmendFrameSparseFallback(t *testing.T) {
	h := newRingHarness(t, 8)
	h.append(0, 2, 5, 9) // skipped frames break the dense indexing
	h.amendFrame(2, 4)   // found by the back-scan; never journaled: no-op
}

// TestRingWriteJSONL round-trips a wrapped ring through the one JSONL writer
// and the one reader, and checks a ring without a frame key ignores
// AmendFrame.
func TestRingWriteJSONL(t *testing.T) {
	r := NewRing[ringRec](4, nil)
	for i := 0; i < 6; i++ {
		r.Append(ringRec{Frame: i, Seq: 1000 * i})
	}
	r.AmendFrame(4, func(*ringRec) { t.Error("AmendFrame ran on a ring without a frame key") })
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n") // blank lines are skipped
	got, err := ReadJSONL[ringRec](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r.Snapshot()) || len(got) != 4 || got[0].Frame != 2 {
		t.Errorf("round trip = %v, want %v", got, r.Snapshot())
	}
	if _, err := ReadJSONL[ringRec](bytes.NewBufferString("{\"frame\":1}\nnot json\n")); err == nil {
		t.Error("malformed line decoded without error")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(16, func(r *ringRec) int { return r.Frame })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Append(ringRec{Frame: i})
				r.AmendFrame(i, func(rec *ringRec) { rec.Amended++ })
				r.AmendFrame(i-3, func(rec *ringRec) { rec.Amended++ })
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 4000 {
		t.Errorf("total = %d, want 4000", got)
	}
	var nilRing *Ring[ringRec]
	nilRing.Append(ringRec{})
	nilRing.AmendFrame(0, func(*ringRec) { t.Error("amend ran on a nil ring") })
	if nilRing.Total() != 0 || nilRing.Snapshot() != nil {
		t.Error("nil ring is not empty")
	}
}

// denseJournalAmend returns an amendment of a full 1024-record journal a
// few frames behind the newest, as the pipelined transport feedback does —
// O(1) regardless of ring size.
func denseJournalAmend() func() {
	r := NewRecorder(1024).Journal()
	for f := 0; f < 1024; f++ {
		r.Append(JournalRecord{Frame: f})
	}
	i := 0
	return func() {
		r.AmendFrame(1023-(i%8), func(rec *JournalRecord) { rec.Outage = false })
		i++
	}
}

func BenchmarkJournalAmendFrameDense(b *testing.B) {
	op := denseJournalAmend()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestJournalAmendFrameAllocatesNothing holds BenchmarkJournalAmendFrameDense's
// op at 0 allocations.
func TestJournalAmendFrameAllocatesNothing(t *testing.T) {
	allocFree(t, "AmendFrame on a full journal", denseJournalAmend())
}
