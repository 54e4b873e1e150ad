package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := &BitWriter{}
	w.WriteBit(1)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xDEAD, 16)
	nbits := w.Len()
	if nbits != 21 {
		t.Fatalf("Len = %d", nbits)
	}
	r := NewBitReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Error("first bit")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("nibble = %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xDEAD {
		t.Errorf("word = %x", v)
	}
}

func TestBitReaderPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); !errors.Is(err, ErrBitstream) {
		t.Errorf("expected ErrBitstream, got %v", err)
	}
}

func TestExpGolombRoundTrip(t *testing.T) {
	w := &BitWriter{}
	ues := []uint32{0, 1, 2, 7, 8, 100, 65535}
	ses := []int32{0, 1, -1, 2, -2, 17, -100, 32000, -32000}
	for _, v := range ues {
		w.WriteUE(v)
	}
	for _, v := range ses {
		w.WriteUE(seToUE(v))
	}
	r := NewBitReader(w.Bytes())
	for _, want := range ues {
		got, err := r.ReadUE()
		if err != nil || got != want {
			t.Fatalf("ReadUE = %d,%v want %d", got, err, want)
		}
	}
	for _, want := range ses {
		got, err := r.ReadSE()
		if err != nil || got != want {
			t.Fatalf("ReadSE = %d,%v want %d", got, err, want)
		}
	}
}

func TestExpGolombProperty(t *testing.T) {
	f := func(vals []int32) bool {
		w := &BitWriter{}
		for _, v := range vals {
			w.WriteUE(seToUE(v % 1_000_000))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadSE()
			if err != nil || got != v%1_000_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpGolombCodeLengths(t *testing.T) {
	// ue(0) is a single bit; codes grow logarithmically.
	w := &BitWriter{}
	w.WriteUE(0)
	if w.Len() != 1 {
		t.Errorf("ue(0) length = %d, want 1", w.Len())
	}
	w2 := &BitWriter{}
	w2.WriteUE(6) // 00111xx → 5 bits
	if w2.Len() != 5 {
		t.Errorf("ue(6) length = %d, want 5", w2.Len())
	}
}

func TestCoeffsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		var levels, got [blockSize * blockSize]int32
		// Sparse blocks like real quantized DCT output.
		for i := 0; i < rng.Intn(12); i++ {
			levels[rng.Intn(64)] = int32(rng.Intn(41) - 20)
		}
		mask := levelsMask(&levels)
		w := &BitWriter{}
		writeCoeffs(w, &levels, mask)
		r := NewBitReader(w.Bytes())
		gotMask, err := readCoeffs(r, &got)
		if err != nil {
			t.Fatal(err)
		}
		if levels != got || gotMask != mask {
			t.Fatalf("trial %d: coeff mismatch", trial)
		}
	}
}

func TestCoeffsEmptyBlockIsOneBit(t *testing.T) {
	var levels [blockSize * blockSize]int32
	w := &BitWriter{}
	writeCoeffs(w, &levels, 0)
	if w.Len() != 1 {
		t.Errorf("empty block = %d bits, want 1", w.Len())
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range zigzag8 {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("zigzag invalid at %d", v)
		}
		seen[v] = true
	}
	if zigzag8[0] != 0 {
		t.Error("zigzag must start at DC")
	}
	if zigzag8[1] != 1 || zigzag8[2] != 8 {
		t.Errorf("zigzag start = %v", zigzag8[:4])
	}
	if zigzag8 != oracleZigzag8() {
		t.Errorf("zigzag8 = %v, the anti-diagonal walk gives %v", zigzag8, oracleZigzag8())
	}
}

// oracleZigzag8 is the scan's definition that the literal zigzag8 table is
// held to: walk the anti-diagonals, even ones up-right, odd ones down-left.
func oracleZigzag8() [blockSize * blockSize]int {
	var order [blockSize * blockSize]int
	idx := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 {
			// Up-right diagonal.
			y := s
			if y > blockSize-1 {
				y = blockSize - 1
			}
			x := s - y
			for y >= 0 && x < blockSize {
				order[idx] = y*blockSize + x
				idx++
				y--
				x++
			}
		} else {
			x := s
			if x > blockSize-1 {
				x = blockSize - 1
			}
			y := s - x
			for x >= 0 && y < blockSize {
				order[idx] = y*blockSize + x
				idx++
				x--
				y++
			}
		}
	}
	return order
}

// refBitWriter is the historical bit-at-a-time writer, kept as the oracle
// for the accumulator-based fast path.
type refBitWriter struct {
	buf  []byte
	cur  uint8
	nCur int
}

func (w *refBitWriter) writeBit(b int) {
	w.cur = w.cur<<1 | uint8(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refBitWriter) writeBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.writeBit(int(v >> uint(i) & 1))
	}
}

func (w *refBitWriter) lenBits() int { return len(w.buf)*8 + w.nCur }

func (w *refBitWriter) bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<uint(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// TestBitWriterMatchesReference drives the buffered multi-bit writer and the
// bit-at-a-time reference through the same randomized operation stream —
// single bits, fields of every width up to 64, and Exp-Golomb codes up to
// the 65-bit maximum — and requires identical lengths and bytes.
func TestBitWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var got BitWriter
		var want refBitWriter
		for op := 0; op < 100; op++ {
			switch rng.Intn(4) {
			case 0:
				b := rng.Intn(2)
				got.WriteBit(b)
				want.writeBit(b)
			case 1:
				n := rng.Intn(65) // 0..64
				v := rng.Uint64()
				got.WriteBits(v, n)
				want.writeBits(v, n)
			case 2:
				v := uint32(rng.Uint64()) // includes MaxUint32 region
				got.WriteUE(v)
				x := uint64(v) + 1
				n := bitLen64(x)
				want.writeBits(0, n-1)
				want.writeBits(x, n)
			case 3:
				v := int32(rng.Uint64())
				got.WriteUE(seToUE(v))
				x := uint64(seToUE(v)) + 1
				n := bitLen64(x)
				want.writeBits(0, n-1)
				want.writeBits(x, n)
			}
			if got.Len() != want.lenBits() {
				t.Fatalf("trial %d op %d: Len = %d, reference %d", trial, op, got.Len(), want.lenBits())
			}
		}
		if !bytes.Equal(got.Bytes(), want.bytes()) {
			t.Fatalf("trial %d: bytes differ from reference", trial)
		}
	}
}

// TestWriteCoeffsMatchesReference holds writeCoeffs' packed fields to the
// symbol stream they stand for — flag, then ue(run) and se(level) per
// coefficient, then the end-of-block run — written a bit at a time: sparse
// and full blocks, levels of every length up to the 31-bit magnitudes whose
// codes cannot share a field with their run (or with anything), and streams
// of blocks so that fields start at every bit offset.
func TestWriteCoeffsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	refUE := func(w *refBitWriter, v uint32) {
		x := uint64(v) + 1
		n := bitLen64(x)
		w.writeBits(0, n-1)
		w.writeBits(x, n)
	}
	for trial := 0; trial < 300; trial++ {
		var got BitWriter
		var want refBitWriter
		for blk := 0; blk < 1+rng.Intn(6); blk++ {
			var levels [blockSize * blockSize]int32
			fill := []int{0, 1, 3, 12, 64}[rng.Intn(5)]
			maxLen := 1 + rng.Intn(31) // magnitudes below 2^maxLen
			for i := 0; i < fill; i++ {
				l := int32(rng.Int63n(1<<uint(maxLen))) + 1
				if l < 0 {
					l = math.MaxInt32
				}
				if rng.Intn(2) == 0 {
					l = -l
				}
				levels[rng.Intn(64)] = l
			}
			mask := levelsMask(&levels)
			writeCoeffs(&got, &levels, mask)
			if mask == 0 {
				want.writeBit(0)
				continue
			}
			want.writeBit(1)
			run := uint32(0)
			for _, pos := range zigzag8 {
				if l := levels[pos]; l != 0 {
					refUE(&want, run)
					refUE(&want, seToUE(l))
					run = 0
				} else {
					run++
				}
			}
			refUE(&want, blockSize*blockSize)
			if got.Len() != want.lenBits() {
				t.Fatalf("trial %d block %d: %d bits, reference %d", trial, blk, got.Len(), want.lenBits())
			}
		}
		if !bytes.Equal(got.Bytes(), want.bytes()) {
			t.Fatalf("trial %d: bytes differ from reference", trial)
		}
	}
}

// TestBitWriterUEMax covers the widest code path: WriteUE(MaxUint32) is a
// 65-bit symbol, exercising the accumulator split.
func TestBitWriterUEMax(t *testing.T) {
	var w BitWriter
	w.WriteUE(math.MaxUint32)
	if w.Len() != 65 {
		t.Fatalf("WriteUE(MaxUint32) wrote %d bits, want 65", w.Len())
	}
	r := NewBitReader(w.Bytes())
	v, err := r.ReadUE()
	if err != nil {
		t.Fatal(err)
	}
	if v != math.MaxUint32 {
		t.Fatalf("round trip = %d, want MaxUint32", v)
	}
}

// TestReadUERejectsWrappingCode pins the 65-bit codes: 32 zeros, a 1 and a
// 32-bit tail. Only a zero tail (MaxUint32) is a value; any other would wrap
// to tail − 1, the value of a short code, and is rejected by the reader and
// by the reference alike, at the end of the buffer and ahead of more bytes.
func TestReadUERejectsWrappingCode(t *testing.T) {
	for _, tail := range []uint64{0, 1, 5, math.MaxUint32} {
		for _, pad := range []int{0, 16} {
			var w BitWriter
			w.WriteBits(1<<32|tail, 65)
			w.WriteBits(0xA5A5, pad)
			buf := w.Bytes()
			got, err := NewBitReader(buf).ReadUE()
			ref, refErr := (&refBitReader{buf: buf}).readUE()
			if tail == 0 {
				if err != nil || got != math.MaxUint32 || refErr != nil || ref != math.MaxUint32 {
					t.Fatalf("pad %d: MaxUint32 read as %d, %v (reference %d, %v)", pad, got, err, ref, refErr)
				}
				continue
			}
			if !errors.Is(err, ErrBitstream) || !errors.Is(refErr, ErrBitstream) {
				t.Fatalf("tail %d pad %d: read %d, %v (reference %d, %v), want ErrBitstream", tail, pad, got, err, ref, refErr)
			}
		}
	}
}

// TestBitWriterReset pins the grow-once contract: a Reset writer keeps its
// backing capacity and produces byte-identical output without reallocating.
func TestBitWriterReset(t *testing.T) {
	var w BitWriter
	write := func() []byte {
		for i := 0; i < 300; i++ {
			w.WriteUE(uint32(i * 7))
			w.WriteBit(i & 1)
		}
		return append([]byte(nil), w.Bytes()...)
	}
	first := write()
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", w.Len())
	}
	allocs := testing.AllocsPerRun(10, func() {
		w.Reset()
		write()
	})
	// write() itself copies the output for comparison (1 alloc) but the
	// writer must not grow again.
	if allocs > 1 {
		t.Errorf("rewrite after Reset: %.1f allocs, want <= 1 (grow-once)", allocs)
	}
	w.Reset()
	if second := write(); !bytes.Equal(first, second) {
		t.Error("Reset writer produced different bytes")
	}
}

// refBitReader is the historical bit-at-a-time reader, kept as the oracle
// for the windowed fast path (mirroring refBitWriter).
type refBitReader struct {
	buf []byte
	pos int
}

func (r *refBitReader) readBit() (int, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrBitstream
	}
	b := r.buf[r.pos/8] >> uint(7-r.pos%8) & 1
	r.pos++
	return int(b), nil
}

func (r *refBitReader) readBits(n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refBitReader) readUE() (uint32, error) {
	n := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, ErrBitstream
		}
	}
	rest, err := r.readBits(n)
	if err != nil {
		return 0, err
	}
	if n == 32 && rest != 0 {
		return 0, ErrBitstream
	}
	return uint32(1<<uint(n) + rest - 1), nil
}

func (r *refBitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	return ueToSE(u), nil
}

// readerOp is one scripted read; n is the ReadBits width.
type readerOp struct{ kind, n int }

// checkReaderAgainstReference replays ops on both readers over buf and
// requires, op by op, the same value and position on success or an
// ErrBitstream-wrapping error from both; it stops at the first error.
func checkReaderAgainstReference(t *testing.T, buf []byte, ops []readerOp) {
	t.Helper()
	got, want := NewBitReader(buf), &refBitReader{buf: buf}
	for i, op := range ops {
		var gv, wv uint64
		var gerr, werr error
		switch op.kind {
		case 0:
			var g, w int
			g, gerr = got.ReadBit()
			w, werr = want.readBit()
			gv, wv = uint64(g), uint64(w)
		case 1:
			gv, gerr = got.ReadBits(op.n)
			wv, werr = want.readBits(op.n)
		case 2:
			var g, w uint32
			g, gerr = got.ReadUE()
			w, werr = want.readUE()
			gv, wv = uint64(g), uint64(w)
		case 3:
			var g, w int32
			g, gerr = got.ReadSE()
			w, werr = want.readSE()
			gv, wv = uint64(g), uint64(w)
		}
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("len %d op %d %+v: error %v, reference %v", len(buf), i, op, gerr, werr)
		}
		if gerr != nil {
			if !errors.Is(gerr, ErrBitstream) {
				t.Fatalf("len %d op %d: error %v does not wrap ErrBitstream", len(buf), i, gerr)
			}
			return
		}
		if gv != wv || got.pos != want.pos {
			t.Fatalf("len %d op %d %+v: value %d pos %d, reference %d pos %d", len(buf), i, op, gv, got.pos, wv, want.pos)
		}
	}
}

// TestBitReaderMatchesReference cross-checks the windowed reader against the
// bit-at-a-time reference on writer-produced streams (so Exp-Golomb reads
// mostly succeed, including 65-bit codes) and on raw random bytes (long
// zero runs, over-long codes), each replayed at every truncation point: the
// window must hand over to the tail loop without changing a value, a
// position or which reads fail.
func TestBitReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		var w BitWriter
		var ops []readerOp
		for len(ops) < 40 {
			op := readerOp{kind: rng.Intn(4), n: rng.Intn(66)}
			switch op.kind {
			case 0:
				w.WriteBit(rng.Intn(2))
			case 1:
				if op.n > 64 { // ReadBits(65) shifts the first bit out
					w.WriteBit(rng.Intn(2))
				}
				w.WriteBits(rng.Uint64(), min(op.n, 64))
			case 2:
				v := uint32(rng.Uint64())
				if rng.Intn(3) > 0 {
					v >>= uint(rng.Intn(32)) // short codes dominate real streams
				}
				w.WriteUE(v)
			case 3:
				w.WriteUE(seToUE(int32(rng.Uint64()) >> uint(rng.Intn(32))))
			}
			ops = append(ops, op)
		}
		buf := w.Bytes()
		if trial%2 == 1 {
			// Raw bytes, sparse in ones: reads need not line up with writes.
			buf = make([]byte, 24+rng.Intn(40))
			for i := range buf {
				if rng.Intn(4) == 0 {
					buf[i] = byte(rng.Intn(256))
				}
			}
		}
		for cut := 0; cut <= len(buf); cut++ {
			checkReaderAgainstReference(t, buf[:cut], ops)
		}
	}
}
