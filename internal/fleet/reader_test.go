package fleet

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"dive/internal/obs"
)

// fieldReaders is the reader rule for the fleet report, stated once: every
// JSON field of a rollup row or the live summary, keyed "Type.field", with
// what reads it — a doctor fleet check, divefleet's printed summary or exit
// status, or a smoke script. A test is not a reader. A new field lands with
// its row; a field whose reader goes away goes with it.
var fieldReaders = map[string]string{
	"FleetRollup.tick":               "doctor straggler-session and fleet-burn: the ticks findings anchor to",
	"FleetRollup.sessions":           "divefleet summary slo line; fleet-burn message",
	"FleetRollup.frames_total":       "divefleet summary throughput line",
	"FleetRollup.bytes_total":        "divefleet summary throughput line",
	"FleetRollup.frames_per_sec":     "divefleet summary throughput line",
	"FleetRollup.latency_p50_sec":    "divefleet summary latency line",
	"FleetRollup.latency_p95_sec":    "divefleet summary latency line",
	"FleetRollup.latency_p99_sec":    "divefleet summary latency line",
	"FleetRollup.fleet_burn":         "doctor fleet-burn; divefleet exit status (burn > 1)",
	"FleetRollup.unhealthy_sessions": "divefleet summary slo line; fleet-burn message",
	"FleetRollup.outage_frac":        "divefleet summary slo line",
	"FleetRollup.median_p99_sec":     "divefleet summary latency line",
	"FleetRollup.per_profile":        "divefleet summary per-profile table",
	"FleetRollup.per_server":         "divefleet summary per-server table",
	"FleetRollup.stragglers":         "doctor straggler-session and fleet-burn; divefleet exit status and straggler table",

	"ProfileRollup.profile":         "divefleet summary per-profile table",
	"ProfileRollup.sessions":        "divefleet summary per-profile table",
	"ProfileRollup.frames_total":    "divefleet summary per-profile table",
	"ProfileRollup.latency_p99_sec": "divefleet summary per-profile table",
	"ProfileRollup.mean_burn":       "divefleet summary per-profile table",
	"ProfileRollup.unhealthy":       "divefleet summary per-profile table",

	"ServerRollup.server":                 "divefleet summary per-server table",
	"ServerRollup.state":                  "divefleet summary per-server table",
	"ServerRollup.sessions":               "divefleet summary per-server table",
	"ServerRollup.migrations_in":          "divefleet summary per-server table",
	"ServerRollup.migrations_out":         "divefleet summary per-server table",
	"ServerRollup.last_heartbeat_age_sec": "divefleet summary per-server table",

	"Straggler.session":         "doctor straggler-session: the streak key and message; divefleet straggler table",
	"Straggler.profile":         "straggler-session message; divefleet straggler table",
	"Straggler.frames":          "divefleet straggler table",
	"Straggler.latency_p99_sec": "straggler-session message; divefleet straggler table",
	"Straggler.burn_rate":       "straggler-session message; divefleet straggler table",
	"Straggler.factor":          "straggler-session message; divefleet straggler table",
	"Straggler.reason":          "straggler-session message; divefleet straggler table",

	"LiveSummary.migrations":            "divefleet summary migrations line",
	"LiveSummary.forced_migrations":     "divefleet summary migrations line, which ci/cluster_smoke.sh gates on",
	"LiveSummary.redirects":             "divefleet summary migrations line",
	"LiveSummary.max_migration_gap_sec": "divefleet summary migrations line",
}

// TestEveryRollupFieldHasReader walks the JSON fields of the rollup rows and
// the live summary and holds them to fieldReaders both ways: a field with no
// row has no stated reader, and a row whose field is gone is stale.
func TestEveryRollupFieldHasReader(t *testing.T) {
	declared := map[string]bool{}
	for _, v := range []any{obs.FleetRollup{}, obs.ProfileRollup{}, obs.ServerRollup{}, obs.Straggler{}, LiveSummary{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name == "" || name == "-" {
				t.Fatalf("%s.%s has no JSON name", typ.Name(), typ.Field(i).Name)
			}
			declared[typ.Name()+"."+name] = true
		}
	}
	var missing, stale []string
	for key := range declared {
		if fieldReaders[key] == "" {
			missing = append(missing, key)
		}
	}
	for key := range fieldReaders {
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("%s has no reader in fieldReaders: add the doctor check, divefleet output or smoke script that reads it, or delete the field", m)
	}
	for _, s := range stale {
		t.Errorf("fieldReaders names %s, which the report no longer has", s)
	}
}
