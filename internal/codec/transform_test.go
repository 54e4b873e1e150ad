package codec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// transformBodies are the two bodies of each block transform: the Go
// specification and the dispatched kernel (the SSE2 body on amd64).
var transformBodies = []struct {
	name string
	fdct func(cur []uint8, cstride int, pred []uint8, pstride int, coef *[blockSize * blockSize]int32) uint32
	idct func(dst []uint8, dstride int, pred []uint8, pstride int, levels *[blockSize * blockSize]int32, qp int)
}{
	{"go", fdctResidualGo, idctAddGo},
	{"kernel", fdctResidual, idctAdd},
}

// residualBytes splits a residual block (|r| ≤ 255) into current and
// prediction bytes whose difference it is.
func residualBytes(res *[blockSize * blockSize]int32) (cur, pred [blockSize * blockSize]uint8) {
	for i, r := range res {
		if r > 0 {
			cur[i] = uint8(r)
		} else {
			pred[i] = uint8(-r)
		}
	}
	return cur, pred
}

// checkFdct holds both forward bodies to the int64 shadow of the transform
// and to the OR of its magnitudes on one residual, cur and pred rows cstride
// and pstride bytes apart, and returns the shadow's coefficients. The bodies
// write into coefficients that start dirty.
func checkFdct(t *testing.T, name string, cur []uint8, cstride int, pred []uint8, pstride int) (want [blockSize * blockSize]int32) {
	t.Helper()
	var res [blockSize * blockSize]int32
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			res[y*blockSize+x] = int32(cur[y*cstride+x]) - int32(pred[y*pstride+x])
		}
	}
	shadowFdct8(&res, &want)
	var wantOr uint32
	for _, c := range want {
		wantOr |= uint32(absInt(int(c)))
	}
	for _, body := range transformBodies {
		var got [blockSize * blockSize]int32
		for i := range got {
			got[i] = -7
		}
		if or := body.fdct(cur, cstride, pred, pstride, &got); got != want || or != wantOr {
			t.Fatalf("%s %s: coefficients differ from the int64 shadow, or their OR %d from %d", name, body.name, or, wantOr)
		}
	}
	return want
}

// checkIdctAdd holds both inverse bodies to the reference reconstruction —
// dequantizeBlockFixed, the full int64 oracleIdct8, prediction + residual
// clamped — on one block at one QP. Destination rows sit dstride = 11 bytes
// apart and start dirty, so a byte stored beside the block shows. The call
// with the prediction as its destination must store the same rows.
func checkIdctAdd(t *testing.T, name string, levels *[blockSize * blockSize]int32, qp int, pred []uint8, pstride int) {
	t.Helper()
	var dct, res [blockSize * blockSize]int32
	dequantizeBlockFixed(levels, qp, &dct)
	oracleIdct8(&dct, &res)
	const dstride = blockSize + 3
	for _, body := range transformBodies {
		dst := make([]uint8, blockSize*dstride)
		for i := range dst {
			dst[i] = 0xA5
		}
		body.idct(dst, dstride, pred, pstride, levels, qp)
		for i, v := range dst {
			y, x := i/dstride, i%dstride
			want := uint8(0xA5)
			if x < blockSize {
				want = clampPixI(int32(pred[y*pstride+x]) + res[y*blockSize+x])
			}
			if v != want {
				t.Fatalf("%s qp %d %s: byte (%d,%d) = %d, want %d", name, qp, body.name, x, y, v, want)
			}
		}
		// In place, as reconstructInterMB runs it: the prediction rows are
		// the destination rows.
		buf := slices.Clone(pred)
		body.idct(buf, pstride, buf, pstride, levels, qp)
		for y := 0; y < blockSize; y++ {
			if in, out := buf[y*pstride:][:blockSize], dst[y*dstride:][:blockSize]; !bytes.Equal(in, out) {
				t.Fatalf("%s qp %d %s: row %d in place = %v, out of place %v", name, qp, body.name, y, in, out)
			}
		}
	}
}

// TestIdctAddFallbackEdges runs both inverse bodies where the SSE2 one
// changes path, at every QP: a level at the largest magnitude whose
// dequantized value is int16, and one past it, both signs, across the block;
// ±2048 at the step of 16, which dequantizes to exactly ±32 768 (no step
// divides 32 767); and a column of equal levels around the smallest that
// drives a first-pass output past int16 — the pass weighs a column's eight
// coefficients by constants summing to colSum for its first output.
func TestIdctAddFallbackEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	pred := make([]uint8, blockSize*blockSize)
	rng.Read(pred)
	colSum := int64(2*fixC4 + fixC1 + fixC2 + fixC3 + fixC5 + fixC6 + fixC7)
	pass1 := func(x int64) int64 { return (colSum*x + idctRnd1) >> idctShift1 }
	step16 := false
	for qp := 0; qp < 52; qp++ {
		q := int64(qstepFix[qp])
		lim := 32767 / q
		edges := []int64{lim, lim + 1, -lim, -lim - 1}
		if q == 16 {
			step16 = true
			edges = append(edges, 2048, -2048)
		}
		for _, l := range edges {
			for pos := 0; pos < blockSize*blockSize; pos += 9 {
				var levels [blockSize * blockSize]int32
				levels[pos] = int32(l)
				checkIdctAdd(t, "dequantized edge", &levels, qp, pred, blockSize)
			}
		}
		edge := (32768<<idctShift1 - idctRnd1 + colSum*q - 1) / (colSum * q)
		if pass1(edge*q) < 32768 || pass1((edge-1)*q) >= 32768 || edge > lim {
			t.Fatalf("qp %d: column level %d is not the first-pass edge", qp, edge)
		}
		for _, l := range []int64{edge - 1, edge, 1 - edge, -edge} {
			var levels [blockSize * blockSize]int32
			for k := 0; k < blockSize; k++ {
				levels[k*blockSize] = int32(l)
			}
			checkIdctAdd(t, "first-pass edge", &levels, qp, pred, blockSize)
		}
	}
	if !step16 {
		t.Fatal("no QP has a step of 16")
	}
}

// FuzzTransform maps the fuzzer's bytes to a QP, prediction and current
// bytes, and 64 levels — a sign, 24 magnitude bits and a shift, as in
// FuzzQuantizeBlock, so both the SSE2 path and its fallback are reached —
// and holds both bodies of each transform to their references. Missing
// bytes read as zero.
func FuzzTransform(f *testing.F) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{0, 128, 384} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(uint8(n), seed)
	}
	f.Fuzz(func(t *testing.T, qp uint8, data []byte) {
		at := func(i int) uint32 {
			if i < len(data) {
				return uint32(data[i])
			}
			return 0
		}
		var cur, pred [blockSize * blockSize]uint8
		var levels [blockSize * blockSize]int32
		for i := range levels {
			pred[i], cur[i] = uint8(at(i)), uint8(at(64+i))
			v := at(128+4*i) | at(129+4*i)<<8 | at(130+4*i)<<16 | at(131+4*i)<<24
			l := int32(v&maxKernelCoef) >> min((v>>24)&31, 24)
			if v>>31 == 1 {
				l = -l
			}
			levels[i] = l
		}
		checkFdct(t, "fuzz", cur[:], blockSize, pred[:], blockSize)
		checkIdctAdd(t, "fuzz", &levels, int(qp)%52, pred[:], blockSize)
	})
}
