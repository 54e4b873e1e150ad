#!/bin/sh
# fleet_smoke.sh — fleet-observability smoke: the end-to-end gate on the
# aggregation plane (per-session recorders → FleetAggregator → rollups →
# divefleet -json report → fleet detectors). Three gates:
#
#   1. Determinism: two identical seeded model runs must print
#      byte-identical JSON reports — the property every fleet experiment
#      in EXPERIMENTS.md relies on.
#   2. Pathology: divedoctor -fleet on gate 1's report, whose fleet has one
#      scripted slow link, must report a straggler-session finding.
#   3. Healthy: the same fleet spec without the slow link must exit 0 from
#      divefleet (no stragglers, burn within budget) and diagnose clean
#      via divedoctor -fleet.
#
# Usage: ci/fleet_smoke.sh
set -u

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT INT TERM

go build -o "$OUT/divefleet" ./cmd/divefleet || exit 2
go build -o "$OUT/divedoctor" ./cmd/divedoctor || exit 2

# --- Gate 1: run-to-run determinism of the seeded model fleet.
FLAGS="-agents 50 -servers 2 -duration 30 -seed 7 -chaos outage-burst"
"$OUT/divefleet" $FLAGS -slow 3 -json -o "$OUT/run1.json" >/dev/null
"$OUT/divefleet" $FLAGS -slow 3 -json -o "$OUT/run2.json" >/dev/null
if ! cmp -s "$OUT/run1.json" "$OUT/run2.json"; then
    echo "fleet-smoke: identical seeded runs produced different reports" >&2
    exit 1
fi

# --- Gate 2: the scripted straggler is diagnosed. Agent 3's link runs at 5%
# bandwidth plus 300ms of server-side delay, so straggler-session must fire
# over the report's rollup series.
# divedoctor exits 1 when findings fired — which is what we expect here.
"$OUT/divedoctor" -fleet "$OUT/run1.json" -json >"$OUT/findings.json" 2>"$OUT/doctor.log"
status=$?
if [ "$status" -eq 2 ]; then
    echo "fleet-smoke: divedoctor -fleet errored" >&2
    cat "$OUT/doctor.log" >&2
    exit 2
fi
if ! grep -q '"check": "straggler-session"' "$OUT/findings.json"; then
    echo "fleet-smoke: no straggler-session finding in the slow-link fleet's report" >&2
    cat "$OUT/findings.json" "$OUT/doctor.log" >&2
    exit 1
fi

# --- Gate 3: the healthy fleet (same spec, no slow link) must pass its own
# exit gate and diagnose clean.
if ! "$OUT/divefleet" $FLAGS -json -o "$OUT/healthy.json" >/dev/null; then
    echo "fleet-smoke: healthy fleet run failed its exit gate" >&2
    exit 1
fi
if ! "$OUT/divedoctor" -fleet "$OUT/healthy.json" >"$OUT/healthy.diag" 2>&1; then
    echo "fleet-smoke: healthy fleet run diagnosed unhealthy" >&2
    cat "$OUT/healthy.diag" >&2
    exit 1
fi

n=$(grep -c '"check": "' "$OUT/findings.json")
echo "fleet-smoke: OK — deterministic report, $n finding(s) with straggler-session present, healthy run clean"
