package codec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// syntaxElement is what every element in syntax.go is: a comparable value
// whose put counts (and, given a writer, writes) it, and whose pointer reads
// it back.
type syntaxElement interface {
	comparable
	put(w *BitWriter) int
}

// checkSyntax asserts an element's contract at a bit offset of pre: put(nil)
// and put(w) return the same length, which is exactly what w grew by; get
// reads back the value put wrote and stops where it ended; and every byte
// truncation short of the element's last bit fails with ErrBitstream.
func checkSyntax[T syntaxElement, P interface {
	*T
	get(r *BitReader) error
}](t *testing.T, x T, pre int) {
	t.Helper()
	counted := x.put(nil)
	var w BitWriter
	w.WriteBits(1<<pre-1, pre)
	if n := x.put(&w); n != counted || w.Len()-pre != n {
		t.Fatalf("%+v: put(nil) = %d, put(w) = %d, w grew by %d bits", x, counted, n, w.Len()-pre)
	}
	data := w.Bytes()
	r := NewBitReader(data)
	r.ReadBits(pre)
	var got T
	if err := P(&got).get(r); err != nil {
		t.Fatalf("%+v: get: %v", x, err)
	}
	if got != x || r.pos != pre+counted {
		t.Fatalf("put %+v, got %+v after %d of %d bits", x, got, r.pos-pre, counted)
	}
	for cut := (pre + 7) / 8; cut*8 < pre+counted; cut++ {
		r := NewBitReader(data[:cut])
		r.ReadBits(pre)
		if err := P(new(T)).get(r); !errors.Is(err, ErrBitstream) {
			t.Fatalf("%+v cut to %d bytes of %d: get = %v, want ErrBitstream", x, cut, len(data), err)
		}
	}
}

// TestSyntaxRoundTrip runs every syntax element through checkSyntax over its
// edge values — zero, the largest, negative deltas — and random ones. An
// se() delta's round-trip domain is |v| < 2^30 (ueToSE works in int32); the
// encoder's deltas stay below 2^17.
func TestSyntaxRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const maxSE = 1<<30 - 1
	ues := []uint32{0, 1, 51, math.MaxUint32 - 1, math.MaxUint32}
	ses := []int32{0, 1, -1, 51, -51, 65535, -65535, maxSE, -maxSE}
	for i := 0; i < 16; i++ {
		ues = append(ues, uint32(rng.Int63n(1<<uint(rng.Intn(33)))))
		ses = append(ses, int32(rng.Int63n(2*maxSE+1)-maxSE)>>uint(rng.Intn(31)))
	}
	pick := func(s []uint32) uint32 { return s[rng.Intn(len(s))] }
	pickSE := func() int32 { return ses[rng.Intn(len(ses))] }
	pre := func() int { return rng.Intn(8) }

	for _, ft := range []FrameType{IFrame, PFrame} {
		for flags := 0; flags < 4; flags++ {
			for _, v := range ues {
				checkSyntax(t, frameHeader{typ: ft, baseQP: v, mbw: pick(ues), mbh: v, subpel: flags&2 != 0, deblock: flags&1 != 0}, pre())
				checkSyntax(t, frameHeader{typ: ft, baseQP: pick(ues), mbw: v, mbh: pick(ues), subpel: flags&1 != 0, deblock: flags&2 != 0}, pre())
			}
		}
	}
	checkSyntax(t, mbHeader{mode: ModeSkip}, pre())
	for _, v := range ses {
		checkSyntax(t, mbHeader{mode: ModeIntra, dqp: v}, pre())
		checkSyntax(t, mbHeader{mode: ModeInter, dx: v, dy: pickSE(), dqp: pickSE()}, pre())
		checkSyntax(t, mbHeader{mode: ModeInter, dx: pickSE(), dy: v, dqp: v}, pre())
	}
	for m := intraMode(0); m < numIntraModes; m++ {
		checkSyntax(t, m, pre())
	}
}

// TestSyntaxRangeChecks writes out-of-range symbols where a frame type, a
// macroblock mode and an intra mode belong: each get rejects its own with
// ErrBitstream.
func TestSyntaxRangeChecks(t *testing.T) {
	for _, c := range []struct {
		name string
		get  func(r *BitReader) error
		bad  []uint32
	}{
		{"frame type", new(FrameType).get, []uint32{0, 3, math.MaxUint32}},
		{"frame header", new(frameHeader).get, []uint32{0, 3, math.MaxUint32}},
		{"MB mode", new(mbHeader).get, []uint32{0, 4, math.MaxUint32}},
		{"intra mode", new(intraMode).get, []uint32{numIntraModes, math.MaxUint32}},
	} {
		for _, v := range c.bad {
			var w BitWriter
			w.WriteUE(v)
			w.WriteBits(0xFFFF_FFFF_FFFF, 48) // whatever might follow
			if err := c.get(NewBitReader(w.Bytes())); !errors.Is(err, ErrBitstream) {
				t.Errorf("%s %d: get = %v, want ErrBitstream", c.name, v, err)
			}
		}
	}
}
