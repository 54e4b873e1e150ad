package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Ring is a bounded ring buffer keeping the last capacity records of one
// telemetry stream — the decision journal and the trace spans each live in
// one. A nil ring is a valid no-op.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total int // records ever appended
	// frame keys AmendFrame; nil on rings that are never amended by frame.
	frame func(*T) int
}

// NewRing creates a ring keeping the last capacity records (at least one).
// frame extracts the frame number AmendFrame looks records up by; rings that
// are only appended to pass nil.
func NewRing[T any](capacity int, frame func(*T) int) *Ring[T] {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, 0, capacity), frame: frame}
}

// at returns the k-th record ever appended; the caller holds r.mu and k is
// retained (total-len(buf) <= k < total).
func (r *Ring[T]) at(k int) *T { return &r.buf[k%cap(r.buf)] }

// Append adds one record, evicting the oldest when full.
func (r *Ring[T]) Append(rec T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		*r.at(r.total) = rec
	}
	r.total++
}

// AmendFrame applies fn to the most recent retained record of the given
// frame; no-op when that frame was never recorded, has been evicted, or the
// ring has no frame key. It is the one way to amend, by frame rather than
// by position: the newest record is the lookup at distance 0, and by the
// time a windowed transport's verdict lands, later frames may already have
// been recorded.
func (r *Ring[T]) AmendFrame(frame int, fn func(*T)) {
	if r == nil || r.frame == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total == 0 {
		return
	}
	// Frames are recorded in increasing order, one record per frame, so
	// frame f normally sits exactly (newestFrame - f) slots behind the
	// newest record — an O(1) index instead of a back-scan, which matters on
	// the windowed path where every frame's transport feedback amends. The
	// look at the next slot keeps "most recent" true when a frame repeats.
	newest := r.total - 1
	if delta := r.frame(r.at(newest)) - frame; delta >= 0 && delta < len(r.buf) {
		k := newest - delta
		if rec := r.at(k); r.frame(rec) == frame && (delta == 0 || r.frame(r.at(k+1)) != frame) {
			fn(rec)
			return
		}
	}
	// Sparse ring (frames skipped, repeated or out of order): fall back to
	// the linear back-scan over the retained records.
	for k := newest; k >= r.total-len(r.buf); k-- {
		if rec := r.at(k); r.frame(rec) == frame {
			fn(rec)
			return
		}
	}
}

// Total returns how many records were ever appended (≥ len(Snapshot())).
func (r *Ring[T]) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained records, oldest first.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	head := r.total % cap(r.buf) // index of the oldest record once full
	if len(r.buf) < cap(r.buf) {
		head = 0
	}
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// WriteJSONL writes the retained records as one JSON object per line,
// oldest first — the format of every /debug/* stream endpoint and of
// divetrace's exports.
func (r *Ring[T]) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, r.Snapshot())
}

// WriteJSONL writes recs as one JSON object per line.
func WriteJSONL[T any](w io.Writer, recs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSONL stream of T — journal records, spans, frame
// lifecycle lines, fleet rollups, runtime samples — skipping blank lines.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}
