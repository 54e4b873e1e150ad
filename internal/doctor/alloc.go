package doctor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Allocation regression gate: `make bench-alloc` runs the steady-state
// encoder benchmarks with -benchmem, and divedoctor compares the measured
// B/op and allocs/op against the committed ci/alloc_baseline.json. The
// encode path is pinned at 0 allocs/op by tests; this gate covers
// the benchmarks' broader view (full rate-controlled GoPs at bench
// resolution) and fails CI when a change reintroduces steady-state churn.

// BenchAlloc is one benchmark's allocation measurement.
type BenchAlloc struct {
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// AllocBaseline is the committed allocation reference: benchmark name
// (GOMAXPROCS suffix stripped) to its known-good measurement.
type AllocBaseline struct {
	Benchmarks map[string]BenchAlloc `json:"benchmarks"`
}

// ReadAllocBaseline decodes a committed alloc baseline file.
func ReadAllocBaseline(r io.Reader) (*AllocBaseline, error) {
	var b AllocBaseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("doctor: parse alloc baseline: %w", err)
	}
	return &b, nil
}

// WriteAllocBaseline encodes the baseline as indented JSON.
func (b *AllocBaseline) WriteAllocBaseline(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ParseBenchOutput extracts per-benchmark allocation numbers from `go test
// -bench -benchmem` text output. Lines look like
//
//	BenchmarkEncodeSteadyState-8   190   6298294 ns/op   0 B/op   0 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so baselines compare across machine
// shapes; lines without both B/op and allocs/op columns are skipped.
func ParseBenchOutput(r io.Reader) (map[string]BenchAlloc, error) {
	out := map[string]BenchAlloc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var ba BenchAlloc
		haveB, haveA := false, false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				ba.BytesPerOp, haveB = v, true
			case "allocs/op":
				ba.AllocsPerOp, haveA = v, true
			}
		}
		if haveB && haveA {
			out[name] = ba
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// allocBytesSlack is the multiplicative headroom CompareAlloc grants B/op
// over the committed baseline before failing.
const allocBytesSlack = 1.25

// CompareAlloc diagnoses allocation regressions of measured benchmarks
// against the committed baseline. allocs/op is compared exactly — it is
// deterministic after warm-up, so any increase over the baseline fails.
// B/op gets allocBytesSlack multiplicative headroom (plus a small absolute
// floor so a 0-byte baseline is not failed by rounding noise). A baseline
// benchmark missing from the output warns: the gate silently weakening is
// itself a finding.
func CompareAlloc(cur map[string]BenchAlloc, base *AllocBaseline) []Finding {
	if base == nil || len(base.Benchmarks) == 0 {
		return nil
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Finding
	for _, name := range names {
		bl := base.Benchmarks[name]
		got, ok := cur[name]
		if !ok {
			out = append(out, Finding{
				Check: "alloc-regression", Severity: Warn,
				Message: fmt.Sprintf("baseline benchmark %s missing from bench output — the alloc gate did not cover it", name),
			})
			continue
		}
		if got.AllocsPerOp > bl.AllocsPerOp {
			out = append(out, Finding{
				Check: "alloc-regression", Severity: Fail,
				Value: got.AllocsPerOp, Threshold: bl.AllocsPerOp,
				Message: fmt.Sprintf("%s allocates %.0f allocs/op, baseline %.0f — steady-state churn reintroduced",
					name, got.AllocsPerOp, bl.AllocsPerOp),
			})
		}
		ceil := bl.BytesPerOp*allocBytesSlack + 64
		if got.BytesPerOp > ceil {
			out = append(out, Finding{
				Check: "alloc-regression", Severity: Fail,
				Value: got.BytesPerOp, Threshold: ceil,
				Message: fmt.Sprintf("%s allocates %.0f B/op, over the %.0f B/op ceiling (baseline %.0f × %.2f slack)",
					name, got.BytesPerOp, ceil, bl.BytesPerOp, allocBytesSlack),
			})
		}
	}
	return out
}

// NewAllocBaseline builds a baseline from measured benchmarks.
func NewAllocBaseline(cur map[string]BenchAlloc) *AllocBaseline {
	b := &AllocBaseline{Benchmarks: map[string]BenchAlloc{}}
	for name, ba := range cur {
		b.Benchmarks[name] = ba
	}
	return b
}
