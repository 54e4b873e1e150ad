#!/bin/sh
# doctor_live.sh — live-observability smoke: boot a paced chaos run serving
# telemetry over HTTP, tail it with divedoctor -follow, and assert at least
# one outage/recovery finding streams out as JSONL *while the run is live*,
# that the follower diagnosed every frame of the run, and that its findings
# equal divedoctor -journal's on the offline journal of the same run. This
# is the end-to-end gate on the one live-diagnosis path: journal ring →
# /debug/journal → follower → incremental detectors → JSONL.
#
# Usage: ci/doctor_live.sh [port]
set -u

PORT="${1:-7079}"
URL="http://127.0.0.1:${PORT}"
OUT="$(mktemp -d)"
trap 'kill "$SERVE_PID" 2>/dev/null; rm -rf "$OUT"' EXIT INT TERM

go build -o "$OUT/divetrace" ./cmd/divetrace || exit 2
go build -o "$OUT/divedoctor" ./cmd/divedoctor || exit 2

# triples FILE: one sorted "check first_frame last_frame" line per finding,
# from compact finding JSONL and from an indented -json report alike.
triples() {
    tr ',{' '\n\n' <"$1" |
        sed -E -n 's/^ *"(check|first_frame|last_frame)": *"?([^"]*)"? *$/\2/p' |
        paste -d' ' - - - | sort
}

# A short outage-burst scenario, paced so the journal grows in wall-clock
# time, lingering after the run so the follower can drain the tail.
"$OUT/divetrace" -serve "127.0.0.1:${PORT}" -chaos outage-burst \
    -duration 3 -pace 25ms -linger 8s 2>"$OUT/serve.log" &
SERVE_PID=$!

# Wait for the telemetry endpoint to come up (the run starts immediately).
up=0
for _ in $(seq 1 50); do
    if command -v curl >/dev/null 2>&1; then
        curl -sf "$URL/metrics" >/dev/null 2>&1 && { up=1; break; }
    else
        wget -qO /dev/null "$URL/metrics" 2>/dev/null && { up=1; break; }
    fi
    sleep 0.2
done
if [ "$up" != 1 ]; then
    echo "doctor-live: telemetry endpoint never came up" >&2
    cat "$OUT/serve.log" >&2
    exit 2
fi

# Follow the live journal. The chaos outage windows are ~3 frames at this
# clip rate, so the outage-drift bar is lowered to match the scenario.
# divedoctor exits 1 when findings fired — which is exactly what we expect.
"$OUT/divedoctor" -follow -url "$URL" -interval 250ms -for 30s \
    -outage-run 3 >"$OUT/findings.jsonl" 2>"$OUT/follow.log"
status=$?
if [ "$status" -eq 2 ]; then
    echo "doctor-live: divedoctor -follow errored" >&2
    cat "$OUT/follow.log" >&2
    exit 2
fi

if ! grep -q '"check":"outage-drift"' "$OUT/findings.jsonl"; then
    echo "doctor-live: no outage finding streamed during the chaos run" >&2
    echo "--- findings" >&2
    cat "$OUT/findings.jsonl" >&2
    echo "--- follow log" >&2
    cat "$OUT/follow.log" >&2
    exit 1
fi

# The whole run, tail included: a 3 s clip at 12 fps is 36 frames.
frames=$(sed -n 's/^divedoctor: followed \([0-9][0-9]*\) journal frames.*/\1/p' "$OUT/follow.log")
if [ "$frames" != 36 ]; then
    echo "doctor-live: followed ${frames:-no} journal frames, want all 36 of the run" >&2
    cat "$OUT/follow.log" >&2
    exit 1
fi

# Served or written, divetrace runs one loop (sim.DiVE.Run), so the offline
# journal of the same scenario, seed and duration must diagnose to the same
# findings the follower streamed.
"$OUT/divetrace" -chaos outage-burst -duration 3 -o "$OUT/offline.jsonl" || exit 2
"$OUT/divedoctor" -journal "$OUT/offline.jsonl" -outage-run 3 -json >"$OUT/offline.json"
if [ $? -eq 2 ]; then
    echo "doctor-live: divedoctor -journal errored on the offline journal" >&2
    exit 2
fi
live=$(triples "$OUT/findings.jsonl")
offline=$(triples "$OUT/offline.json")
if [ "$live" != "$offline" ]; then
    echo "doctor-live: followed findings differ from the offline journal's" >&2
    echo "--- followed (check first_frame last_frame)" >&2
    echo "$live" >&2
    echo "--- offline" >&2
    echo "$offline" >&2
    exit 1
fi

n=$(grep -c '"check"' "$OUT/findings.jsonl")
echo "doctor-live: OK — $n finding(s) streamed live over all $frames frames, outage-drift present, equal to the offline journal's"
