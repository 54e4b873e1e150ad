package doctor

import (
	"bytes"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: dive/internal/codec
cpu: AMD EPYC 7B13
BenchmarkEncodeSteadyState-8        	     190	   6298294 ns/op	       0 B/op	       0 allocs/op
BenchmarkEncodeSteadyStateFresh-8   	     178	   6701122 ns/op	   10355 B/op	       3 allocs/op
BenchmarkEncode/w320-8              	      50	  22123456 ns/op
PASS
ok  	dive/internal/codec	5.012s
`

// TestParseBenchOutput pins the -benchmem text format: names lose the
// GOMAXPROCS suffix, B/op and allocs/op are extracted, and lines without
// -benchmem columns are skipped.
func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(got), got)
	}
	if ba := got["BenchmarkEncodeSteadyState"]; ba.AllocsPerOp != 0 || ba.BytesPerOp != 0 {
		t.Errorf("steady-state = %+v, want 0/0", ba)
	}
	if ba := got["BenchmarkEncodeSteadyStateFresh"]; ba.AllocsPerOp != 3 || ba.BytesPerOp != 10355 {
		t.Errorf("fresh = %+v, want 3 allocs / 10355 B", ba)
	}
}

// TestCompareAllocCleanAndRegressed drives the gate both ways against a
// baseline pinning the pooled benchmark at zero.
func TestCompareAllocCleanAndRegressed(t *testing.T) {
	base := &AllocBaseline{Benchmarks: map[string]BenchAlloc{
		"BenchmarkEncodeSteadyState":      {BytesPerOp: 0, AllocsPerOp: 0},
		"BenchmarkEncodeSteadyStateFresh": {BytesPerOp: 10355, AllocsPerOp: 3},
	}}
	cur, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if fs := CompareAlloc(cur, base); len(fs) != 0 {
		t.Fatalf("clean run flagged: %+v", fs)
	}

	// One alloc/op on the pooled path regresses the 0 baseline.
	cur["BenchmarkEncodeSteadyState"] = BenchAlloc{BytesPerOp: 384, AllocsPerOp: 1}
	fs := CompareAlloc(cur, base)
	var allocFail, bytesFail bool
	for _, f := range fs {
		if f.Check != "alloc-regression" || f.Severity != Fail {
			t.Errorf("unexpected finding %+v", f)
		}
		if strings.Contains(f.Message, "allocs/op") {
			allocFail = true
		}
		if strings.Contains(f.Message, "B/op") {
			bytesFail = true
		}
	}
	if !allocFail || !bytesFail {
		t.Fatalf("findings = %+v, want allocs/op and B/op failures", fs)
	}
}

// TestCompareAllocSlackAndMissing: B/op inside the slack window passes, a
// baseline benchmark absent from the output warns.
func TestCompareAllocSlackAndMissing(t *testing.T) {
	base := &AllocBaseline{Benchmarks: map[string]BenchAlloc{
		"BenchmarkEncodeSteadyStateFresh": {BytesPerOp: 10000, AllocsPerOp: 3},
		"BenchmarkGone":                   {BytesPerOp: 1, AllocsPerOp: 1},
	}}
	cur := map[string]BenchAlloc{
		// +20% B/op: inside the default 1.25x slack.
		"BenchmarkEncodeSteadyStateFresh": {BytesPerOp: 12000, AllocsPerOp: 3},
	}
	fs := CompareAlloc(cur, base)
	if len(fs) != 1 || fs[0].Severity != Warn || !strings.Contains(fs[0].Message, "BenchmarkGone") {
		t.Fatalf("findings = %+v, want one Warn about BenchmarkGone", fs)
	}
}

// TestAllocBaselineRoundTrip writes and re-reads a baseline built from
// parsed output.
func TestAllocBaselineRoundTrip(t *testing.T) {
	cur, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	b := NewAllocBaseline(cur)
	if len(b.Benchmarks) != 2 {
		t.Fatalf("baseline kept %d benchmarks, want 2", len(b.Benchmarks))
	}
	var buf bytes.Buffer
	if err := b.WriteAllocBaseline(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllocBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks["BenchmarkEncodeSteadyStateFresh"].BytesPerOp != 10355 {
		t.Fatalf("round trip mangled: %+v", got.Benchmarks)
	}
}
