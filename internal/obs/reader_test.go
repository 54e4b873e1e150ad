package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// familyReaders is the reader rule stated once: every metric family named in
// obs.go, keyed by its constant, with what reads it outside obs's own
// exposition — a doctor check, a smoke script, the fleet rollup, the
// benchmark, or an operator query README documents and a test pins. A new
// family lands with its row; a family whose reader goes away goes with it.
var familyReaders = map[string]string{
	"MetricFrames":  "fleet rollup: FleetAggregator.fold sums it per session (FleetRollup.FramesTotal)",
	"MetricBytes":   "fleet rollup: FleetAggregator.fold sums it per session (FleetRollup.BytesTotal)",
	"StageResponse": "fleet rollup: FleetAggregator.fold merges it into the fleet and per-profile latency quantiles",

	"GaugeBWEstimate": "benchmark: benchmark/shadow.go sets netsim.Estimator.Obs; waits on ROADMAP item 1, which deletes shadow.go and this gauge with it",

	"MetricEdgeSessionFrames": "README per-session series; edge TestServerPerSessionMetrics",
	"MetricEdgeSessionBytes":  "README per-session series; edge TestServerPerSessionMetrics",
	"MetricEdgeSessionNacks":  "README per-session series; edge TestServerSessionNackCounter",
	"StageEdgeSessionDecode":  "README per-session latency histograms; edge TestServerPerSessionMetrics",
	"StageEdgeSessionDetect":  "README per-session latency histograms; edge TestServerPerSessionMetrics",

	"GaugeSLOBurnRate":   "README slo_burn_rate{session} query; TestSLOStatusPublishesLabeledGauges",
	"GaugeSLOLatencyP99": "README slo_*{session} join; TestSLOStatusPublishesLabeledGauges",
	"GaugeSLOOutageFrac": "README slo_*{session} join; TestSLOStatusPublishesLabeledGauges",

	"GaugeGoHeapLiveBytes": "README operator manual; TestUpdateRuntimeGauges",
	"GaugeGoGCPauseP99":    "README operator manual; TestUpdateRuntimeGauges",
	"GaugeGoGoroutines":    "README operator manual; TestUpdateRuntimeGauges",

	"MetricLabelOverflow": "README cardinality rule; TestLabelOverflowCounter",
}

// TestEveryFamilyHasReader parses obs.go's name constants (the Metric*,
// Gauge* and Stage* ones) and holds them to familyReaders both ways: a
// family with no row has no stated reader, and a row whose constant is gone
// is stale.
func TestEveryFamilyHasReader(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "obs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{} // constant → metric name
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Metric") && !strings.HasPrefix(id.Name, "Gauge") && !strings.HasPrefix(id.Name, "Stage") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s is not a string literal", id.Name)
				}
				declared[id.Name], _ = strconv.Unquote(lit.Value)
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no Metric*, Gauge* or Stage* constants in obs.go")
	}
	var missing, stale []string
	for name, metric := range declared {
		if familyReaders[name] == "" {
			missing = append(missing, name+" ("+metric+")")
		}
	}
	for name := range familyReaders {
		if _, ok := declared[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("%s has no reader in familyReaders: add the doctor check, smoke script, rollup, benchmark or pinned README query that reads it, or delete the family", m)
	}
	for _, s := range stale {
		t.Errorf("familyReaders names %s, which obs.go no longer declares", s)
	}
}
