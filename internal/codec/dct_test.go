package codec

import (
	"math"
	"math/rand"
	"testing"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var src, freq, back [blockSize * blockSize]float64
	for i := range src {
		src[i] = float64(rng.Intn(256))
	}
	refFdct8(&src, &freq)
	refIdct8(&freq, &back)
	for i := range src {
		if math.Abs(src[i]-back[i]) > 1e-9 {
			t.Fatalf("DCT round trip error at %d: %v vs %v", i, src[i], back[i])
		}
	}
}

func TestDCTEnergyCompaction(t *testing.T) {
	// A constant block has all energy in DC.
	var src, freq [blockSize * blockSize]float64
	for i := range src {
		src[i] = 100
	}
	refFdct8(&src, &freq)
	if math.Abs(freq[0]-800) > 1e-9 { // 100·8 for orthonormal 2-D DCT
		t.Errorf("DC = %v, want 800", freq[0])
	}
	for i := 1; i < len(freq); i++ {
		if math.Abs(freq[i]) > 1e-9 {
			t.Fatalf("AC[%d] = %v, want 0", i, freq[i])
		}
	}
}

func TestDCTParseval(t *testing.T) {
	// Orthonormal transform preserves energy.
	rng := rand.New(rand.NewSource(2))
	var src, freq [blockSize * blockSize]float64
	for i := range src {
		src[i] = rng.Float64()*255 - 128
	}
	refFdct8(&src, &freq)
	var es, ef float64
	for i := range src {
		es += src[i] * src[i]
		ef += freq[i] * freq[i]
	}
	if math.Abs(es-ef) > 1e-6*es {
		t.Errorf("energy %v vs %v", es, ef)
	}
}

// TestQStep pins the quantization-step law qstepTable holds: 0.625 at QP 0,
// doubling every 6 QP, monotone, and read through clampQP outside [0, 51].
func TestQStep(t *testing.T) {
	if qstepTable[0] != 0.625 {
		t.Errorf("qstepTable[0] = %v", qstepTable[0])
	}
	for qp := 6; qp <= 51; qp++ {
		if math.Abs(qstepTable[qp]/qstepTable[qp-6]-2) > 1e-12 {
			t.Errorf("qstepTable[%d] / qstepTable[%d] = %v, want 2", qp, qp-6, qstepTable[qp]/qstepTable[qp-6])
		}
	}
	if clampQP(-5) != 0 || clampQP(99) != 51 {
		t.Error("clampQP clamp failed")
	}
	for qp := 1; qp <= 51; qp++ {
		if qstepTable[qp] <= qstepTable[qp-1] {
			t.Fatalf("qstepTable not monotone at %d", qp)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	var dct, back [blockSize * blockSize]float64
	var levels [blockSize * blockSize]int32
	dct[0] = 800
	dct[1] = -37.3
	dct[9] = 12.1
	qstep := qstepTable[20]
	refQuantizeBlock(&dct, qstep, &levels)
	refDequantizeBlock(&levels, qstep, &back)
	for i := range dct {
		if math.Abs(dct[i]-back[i]) > qstep/2+1e-9 {
			t.Errorf("coeff %d: error %v exceeds qstep/2", i, math.Abs(dct[i]-back[i]))
		}
	}
	// Higher QP quantizes more coefficients to zero.
	var levLow, levHigh [blockSize * blockSize]int32
	refQuantizeBlock(&dct, qstepTable[4], &levLow)
	refQuantizeBlock(&dct, qstepTable[40], &levHigh)
	nz := func(l *[blockSize * blockSize]int32) int {
		n := 0
		for _, v := range l {
			if v != 0 {
				n++
			}
		}
		return n
	}
	if nz(&levHigh) > nz(&levLow) {
		t.Error("higher QP should not keep more coefficients")
	}
}
