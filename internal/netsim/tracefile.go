package netsim

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseTraceCSV reads a bandwidth trace from CSV text and returns it as a
// StepTrace. Each non-empty, non-comment line holds two fields:
//
//	<time_seconds>,<bandwidth_mbps>
//
// Fields may also be separated by whitespace or semicolons; lines starting
// with '#' are comments. Times must be non-negative and strictly ascending;
// bandwidths must be non-negative. This is the common interchange format of
// published cellular traces (e.g. the Mahimahi-style LTE logs many video
// systems papers replay), letting users run the experiments over recorded
// links instead of the synthetic ones.
func ParseTraceCSV(r io.Reader) (*StepTrace, error) {
	sc := bufio.NewScanner(r)
	trace := &StepTrace{}
	lineNo := 0
	lastT := -1.0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ';' || r == ' ' || r == '\t'
		})
		// FieldsFunc may produce empty strings between adjacent separators.
		var parts []string
		for _, f := range fields {
			if f != "" {
				parts = append(parts, f)
			}
		}
		if len(parts) != 2 {
			return nil, fmt.Errorf("netsim: trace line %d: want 2 fields, got %d", lineNo, len(parts))
		}
		t, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("netsim: trace line %d: bad time %q", lineNo, parts[0])
		}
		mbps, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("netsim: trace line %d: bad bandwidth %q", lineNo, parts[1])
		}
		if t < 0 || mbps < 0 {
			return nil, fmt.Errorf("netsim: trace line %d: negative value", lineNo)
		}
		if t <= lastT {
			return nil, fmt.Errorf("netsim: trace line %d: times must be strictly ascending", lineNo)
		}
		lastT = t
		trace.Times = append(trace.Times, t)
		trace.Rates = append(trace.Rates, Mbps(mbps))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(trace.Times) == 0 {
		return nil, fmt.Errorf("netsim: empty trace")
	}
	if trace.Times[0] != 0 {
		// Hold the first rate from t=0 so the link is defined everywhere.
		trace.Times = append([]float64{0}, trace.Times...)
		trace.Rates = append([]float64{trace.Rates[0]}, trace.Rates...)
	}
	return trace, nil
}
