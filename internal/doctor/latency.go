package doctor

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dive/internal/obs"
)

// Baseline is the committed latency reference a run is compared against:
// the per-stage duration histograms of a known-good run plus the
// environment that produced them. CI regenerates it with
// divedoctor -write-baseline.
type Baseline struct {
	Meta   obs.RunMeta                      `json:"run_meta"`
	Stages map[string]obs.HistogramSnapshot `json:"stages"`
}

// stageNames are the pipeline histograms the latency check covers — the
// per-frame agent stages and the edge stages, the spans of the end-to-end
// trace.
var stageNames = []string{
	obs.StageFrame,
	obs.StageMotion,
	obs.StageRotation,
	obs.StageForeground,
	obs.StageEncode,
	obs.StageEdgeDecode,
	obs.StageEdgeDetect,
}

// NewBaseline extracts the latency baseline from a telemetry snapshot.
func NewBaseline(meta obs.RunMeta, snap *obs.Snapshot) *Baseline {
	b := &Baseline{Meta: meta, Stages: map[string]obs.HistogramSnapshot{}}
	if snap == nil {
		return b
	}
	for _, name := range stageNames {
		if h, ok := snap.Histograms[name]; ok && h.Count > 0 {
			b.Stages[name] = h
		}
	}
	return b
}

// ReadBaseline decodes a committed baseline file.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("doctor: parse baseline: %w", err)
	}
	return &b, nil
}

// WriteBaseline encodes the baseline as indented JSON.
func (b *Baseline) WriteBaseline(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// latencyP95Ratio flags a pipeline stage whose p95 grew by this factor over a
// baseline from a comparable environment; stageShareGrowth is the fallback
// factor on the stage's share of total pipeline time when the environments
// are not comparable (different machine or worker count).
const (
	latencyP95Ratio  = 1.5
	stageShareGrowth = 1.6
)

// CompareLatency diagnoses per-stage latency regressions of the current run
// against the baseline. When the two environments are comparable (same Go
// version, machine shape and worker count) absolute p95s are compared
// directly; otherwise absolute times mean nothing across machines, so the
// check falls back to each stage's share of total pipeline time, which is
// machine-invariant to first order. Findings are Warn severity when only
// the share-based fallback fired on a non-comparable environment.
func CompareLatency(cur *Baseline, base *Baseline) []Finding {
	if base == nil || cur == nil || len(base.Stages) == 0 {
		return nil
	}
	comparable := cur.Meta.Comparable(base.Meta)
	var out []Finding
	if comparable {
		for _, name := range orderedStages(base.Stages) {
			bh := base.Stages[name]
			ch, ok := cur.Stages[name]
			if !ok || ch.Count == 0 || bh.P95 <= 0 {
				continue
			}
			ratio := ch.P95 / bh.P95
			if ratio > latencyP95Ratio {
				out = append(out, Finding{
					Check: "latency-regression", Severity: Fail,
					Value: ratio, Threshold: latencyP95Ratio,
					Message: fmt.Sprintf(
						"stage %s p95 regressed %.2fx vs baseline (%.2fms → %.2fms) on a comparable environment",
						name, ratio, bh.P95*1000, ch.P95*1000),
				})
			}
		}
		return out
	}
	// Non-comparable environments: compare each stage's share of the summed
	// stage time instead of absolute durations.
	baseShares, baseTotal := stageShares(base.Stages)
	curShares, curTotal := stageShares(cur.Stages)
	if baseTotal <= 0 || curTotal <= 0 {
		return nil
	}
	for _, name := range orderedStages(base.Stages) {
		bs, cs := baseShares[name], curShares[name]
		// Ignore stages too small for their share to be meaningful.
		if bs < 0.02 || cs <= 0 {
			continue
		}
		if ratio := cs / bs; ratio > stageShareGrowth {
			out = append(out, Finding{
				Check: "latency-regression", Severity: Warn,
				Value: ratio, Threshold: stageShareGrowth,
				Message: fmt.Sprintf(
					"stage %s grew from %.0f%% to %.0f%% of pipeline time (%.2fx); environments differ, so absolute times were not compared",
					name, bs*100, cs*100, ratio),
			})
		}
	}
	return out
}

// stageShares maps each stage (excluding the whole-frame envelope, which
// contains the others) to its fraction of the summed per-stage p95s.
func stageShares(stages map[string]obs.HistogramSnapshot) (map[string]float64, float64) {
	total := 0.0
	for name, h := range stages {
		if name == obs.StageFrame {
			continue
		}
		total += h.P95
	}
	shares := map[string]float64{}
	if total <= 0 {
		return shares, 0
	}
	for name, h := range stages {
		if name == obs.StageFrame {
			continue
		}
		shares[name] = h.P95 / total
	}
	return shares, total
}

func orderedStages(m map[string]obs.HistogramSnapshot) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
