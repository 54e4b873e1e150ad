package codec

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The entropy writer and the Exp-Golomb sign maps held to the bodies they
// replaced (oracleWriteCoeffs, oracleSeToUE, oracleUeToSE in oracle_test.go):
// writeCoeffs walks the zigzag significance mask where the oracle tested
// every level for zero, and the maps pick by mask where the oracles branched.

// checkWriteCoeffs writes one block through the mask walk and through the
// oracle, each into a writer that already holds pending (0–7) bits, and
// requires the same length and bytes, and that blockBits prices the block at
// exactly the length appended.
func checkWriteCoeffs(t *testing.T, name string, levels *[blockSize * blockSize]int32, pending int) {
	t.Helper()
	var got, want BitWriter
	got.WriteBits(0x5a, pending)
	want.WriteBits(0x5a, pending)
	sig, lenSum := levelsSig(levels)
	mask := zigzagMask(sig)
	writeCoeffs(&got, levels, mask)
	oracleWriteCoeffs(&want, levels, bits.OnesCount64(sig))
	if got.Len() != want.Len() {
		t.Fatalf("%s (%d pending): wrote %d bits, oracle %d", name, pending, got.Len(), want.Len())
	}
	if n := blockBits(mask, lenSum); got.Len()-pending != n {
		t.Fatalf("%s (%d pending): wrote %d bits, blockBits says %d", name, pending, got.Len()-pending, n)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s (%d pending): bytes differ from the oracle", name, pending)
	}
}

// TestWriteCoeffsMatchesOracle runs the mask walk against the old writer on
// the blocks where a walk over set bits could go wrong — every level
// nonzero (no run at all), a lone coefficient at zigzag position 63 (the
// longest run), levels long enough to take the nRun+nLev > 56 fallback, up
// to ±MaxInt32 — and on random blocks from empty to dense, each behind 0–7
// pending bits.
func TestWriteCoeffsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	long := []int32{1 << 25, 1<<26 + 3, 1 << 27, 1<<28 - 1, 1 << 30, math.MaxInt32}
	for pending := 0; pending < 8; pending++ {
		var levels [blockSize * blockSize]int32
		checkWriteCoeffs(t, "empty", &levels, pending)

		for i := range levels {
			levels[i] = int32(1 + rng.Intn(1000))
			if rng.Intn(2) == 0 {
				levels[i] = -levels[i]
			}
		}
		checkWriteCoeffs(t, "dense", &levels, pending)
		for i := range levels {
			levels[i] = long[i%len(long)]
			if i%3 == 0 {
				levels[i] = -levels[i]
			}
		}
		checkWriteCoeffs(t, "dense long", &levels, pending)

		for _, v := range append([]int32{1, -1, 2, -1000, maxKernelCoef}, long...) {
			for _, l := range []int32{v, -v} {
				levels = [blockSize * blockSize]int32{}
				levels[zigzag8[63]] = l
				checkWriteCoeffs(t, "lone@63", &levels, pending)
				// A long level behind a run: the pair cannot share a field.
				levels[zigzag8[5]] = l
				levels[zigzag8[0]] = -l
				checkWriteCoeffs(t, "long after run", &levels, pending)
			}
		}

		for trial := 0; trial < 200; trial++ {
			levels = [blockSize * blockSize]int32{}
			fill := []int{1, 3, 12, 40, 64}[rng.Intn(5)]
			maxLen := 1 + rng.Intn(31) // magnitudes below 2^maxLen
			for i := 0; i < fill; i++ {
				l := int32(rng.Int63n(1<<uint(maxLen))) + 1
				if l <= 0 {
					l = math.MaxInt32
				}
				if rng.Intn(2) == 0 {
					l = -l
				}
				levels[rng.Intn(64)] = l
			}
			checkWriteCoeffs(t, "random", &levels, pending)
		}
	}
}

// TestSignMapsMatchOracle holds the branch-free sign maps to the branching
// ones on the int32 and uint32 edges and on 10^6 random values each:
// ueToSE everywhere, seToUE everywhere but MinInt32 (outside its domain,
// TestSeToUEDomainExcludesMinInt32), and the round trip ueToSE(seToUE(v))
// where it holds, |v| < 2^30 (above, ueToSE's int32(u+1) wraps, in both
// bodies alike).
func TestSignMapsMatchOracle(t *testing.T) {
	checkSE := func(v int32) {
		t.Helper()
		if got, want := seToUE(v), oracleSeToUE(v); got != want {
			t.Fatalf("seToUE(%d) = %d, oracle %d", v, got, want)
		}
		if got := ueToSE(seToUE(v)); got != v && v < 1<<30 && v > -1<<30 {
			t.Fatalf("ueToSE(seToUE(%d)) = %d", v, got)
		}
	}
	checkUE := func(u uint32) {
		t.Helper()
		if got, want := ueToSE(u), oracleUeToSE(u); got != want {
			t.Fatalf("ueToSE(%d) = %d, oracle %d", u, got, want)
		}
	}
	for _, v := range []int32{0, 1, -1, 2, -2, 3, -3, maxKernelCoef, -maxKernelCoef, 1 << 24, -1 << 24,
		math.MaxInt16, math.MinInt16, math.MaxInt32, math.MaxInt32 - 1, -math.MaxInt32, math.MinInt32 + 2} {
		checkSE(v)
	}
	for _, u := range []uint32{0, 1, 2, 3, 4, 1<<24 - 1, 1 << 24, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1,
		math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32} {
		checkUE(u)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1_000_000; i++ {
		if v := int32(rng.Uint32()); v != math.MinInt32 {
			checkSE(v)
		}
		checkUE(rng.Uint32())
	}
}

// TestSeToUEDomainExcludesMinInt32 pins why seToUE may be wrong at
// MinInt32. The branching body wraps −2·MinInt32 to 0, the code for zero, so
// WriteSE(MinInt32) always decoded as 0; no body round-trips it. And no
// encoder symbol comes near it, nor near the 2^30 where the round trip ends:
// the largest level is the quantizer's at QP 0 on its domain's largest
// coefficient, MV deltas are differences of two int16, QP deltas of two QPs.
func TestSeToUEDomainExcludesMinInt32(t *testing.T) {
	if oracleSeToUE(math.MinInt32) != oracleSeToUE(0) {
		t.Fatalf("oracle seToUE(MinInt32) = %d, want the code for zero", oracleSeToUE(math.MinInt32))
	}
	if ueToSE(seToUE(math.MinInt32)) == math.MinInt32 {
		t.Fatal("seToUE round-trips MinInt32: widen its documented domain")
	}
	if l := levelAt(maxKernelCoef, 0); l >= 1<<30 {
		t.Fatalf("largest level %d reaches 2^30", l)
	}
}

// FuzzWriteCoeffs maps the fuzzer's input to a block — sel picks the raster
// positions that hold a level, four bytes per picked position give a sign, a
// magnitude and, in the low five bits, a shift that spreads it from 1 to
// MaxInt32 (missing bytes read as zero, a zero magnitude as 1) — and holds
// the mask walk to the oracle writer behind 0–7 pending bits.
func FuzzWriteCoeffs(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	seed := make([]byte, 256)
	rng.Read(seed)
	f.Add(uint8(0), uint64(0), []byte{})
	f.Add(uint8(3), ^uint64(0), seed)
	f.Add(uint8(5), uint64(1)<<uint(zigzag8[63]), []byte{0xff, 0xff, 0xff, 0x03})
	f.Add(uint8(7), rng.Uint64()&rng.Uint64(), seed[:64])
	f.Fuzz(func(t *testing.T, pending uint8, sel uint64, data []byte) {
		var levels [blockSize * blockSize]int32
		for j := 0; sel != 0; sel &= sel - 1 {
			var v uint32
			for k := 0; k < 4 && 4*j+k < len(data); k++ {
				v |= uint32(data[4*j+k]) << (8 * k)
			}
			j++
			l := max(int32(v&math.MaxInt32)>>(v&31), 1)
			if v>>31 == 1 {
				l = -l
			}
			levels[bits.TrailingZeros64(sel)] = l
		}
		checkWriteCoeffs(t, "fuzz", &levels, int(pending%8))
	})
}
