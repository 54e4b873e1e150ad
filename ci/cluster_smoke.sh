#!/bin/sh
# cluster_smoke.sh — kill-a-server chaos gate: the end-to-end check on the
# cluster failure model (health-routed balancer → seeded member kill → forced
# session migration → bounded re-detection gap). One drill, three gates:
#
#   1. The drill itself: three sessions spread round-robin over a 3-member
#      cluster, the seed-chosen member (2, for seed 42) killed once its
#      session has streamed half its frames. The log must name member 2 as
#      the victim, every session must finish (no session errors) and the
#      report must show at least one forced migration.
#   2. The gap bound: divedoctor grades each exported session journal and
#      must find exactly one migration-gap finding fleet-wide, at warn
#      severity — the migration happened AND stayed inside the budget. A
#      fail-severity gap (blind longer than the bound) fails the gate.
#   3. No storm: zero failover-storm findings — the session settled on a
#      survivor instead of ping-ponging between members.
#
# Usage: ci/cluster_smoke.sh
set -u

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT INT TERM

go build -o "$OUT/divefleet" ./cmd/divefleet || exit 2
go build -o "$OUT/divedoctor" ./cmd/divedoctor || exit 2

# --- Gate 1: the drill. divefleet exit 1 (stragglers/burn inside the kill
# window) is tolerated; >= 2 is a usage/runtime error.
"$OUT/divefleet" -live -cluster 3 -agents 3 -duration 2 -seed 42 \
    -kill-frac 0.5 -journal-dir "$OUT/journals" \
    >"$OUT/report.txt" 2>"$OUT/run.log"
status=$?
if [ "$status" -ge 2 ]; then
    echo "cluster-smoke: divefleet errored (exit $status)" >&2
    cat "$OUT/run.log" >&2
    exit 2
fi
# Seed 42 on three members is member 2 (chaos.Victim): a drill that kills
# another member, or none, has lost its seeded victim.
if ! grep -q 'fleet: killing member 2 ' "$OUT/run.log"; then
    echo "cluster-smoke: the drill did not kill the seeded victim, member 2" >&2
    cat "$OUT/run.log" >&2
    exit 1
fi
if grep -q 'session [0-9][0-9]*:' "$OUT/run.log"; then
    echo "cluster-smoke: a session did not survive the kill" >&2
    cat "$OUT/run.log" >&2
    exit 1
fi
forced=$(sed -n 's/^migrations: [0-9][0-9]* (\([0-9][0-9]*\) forced.*/\1/p' "$OUT/report.txt")
if [ -z "$forced" ] || [ "$forced" -lt 1 ]; then
    echo "cluster-smoke: kill produced no forced migration" >&2
    cat "$OUT/report.txt" >&2
    cat "$OUT/run.log" >&2
    exit 1
fi

# --- Gates 2+3: doctor grading of the exported journals. divedoctor exits 1
# on findings — expected here (the migration-gap warn is supposed to fire);
# only exit >= 2 is an error.
gaps=0
gap_fails=0
storms=0
for j in "$OUT/journals"/*.jsonl; do
    [ -f "$j" ] || { echo "cluster-smoke: no journals exported" >&2; exit 2; }
    "$OUT/divedoctor" -journal "$j" -json >"$OUT/findings.json" 2>>"$OUT/run.log"
    s=$?
    if [ "$s" -ge 2 ]; then
        echo "cluster-smoke: divedoctor errored on $j (exit $s)" >&2
        cat "$OUT/run.log" >&2
        exit 2
    fi
    g=$(grep -c '"check": "migration-gap"' "$OUT/findings.json") || true
    f=$(grep -A1 '"check": "migration-gap"' "$OUT/findings.json" | grep -c '"severity": "fail"') || true
    st=$(grep -c '"check": "failover-storm"' "$OUT/findings.json") || true
    gaps=$((gaps + g))
    gap_fails=$((gap_fails + f))
    storms=$((storms + st))
done

if [ "$gaps" -ne 1 ]; then
    echo "cluster-smoke: $gaps migration-gap finding(s) fleet-wide, want exactly 1" >&2
    cat "$OUT/run.log" >&2
    exit 1
fi
if [ "$gap_fails" -ne 0 ]; then
    echo "cluster-smoke: re-detection gap exceeded the budget" >&2
    exit 1
fi
if [ "$storms" -ne 0 ]; then
    echo "cluster-smoke: failover storm detected after a single kill" >&2
    exit 1
fi

echo "cluster-smoke: OK — $forced forced migration(s), 1 bounded migration gap, no failover storm"
