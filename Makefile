GO ?= go

.PHONY: all build test portable race vet bench bench-obs bench-smoke bench-alloc alloc-baseline benchmark benchmark-test chaos-smoke cluster-smoke doctor-live fleet-smoke fuzz-smoke loc clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The portable path, run rather than only vetted: as 386 every kernel with an
# amd64 assembly body (internal/imgx's row kernels, internal/codec's block
# quantizer, block transforms, deblocking filter and intra mode decision)
# runs its Go body, against the same tests, decoder_golden.json and
# agent_golden.json. Needs no 386 machine: a linux/amd64 kernel runs 386
# binaries.
portable:
	GOARCH=386 $(GO) test ./internal/imgx/ ./internal/codec/ ./internal/core/

# Race-detector pass over the concurrency-bearing packages (the harness
# fan-out and renderer bands, telemetry, transports, cluster) and the
# single-goroutine agent packages they drive (codec, core, sim); doctor's one
# generic follower sits behind an HTTP handler (/debug/doctor).
race:
	$(GO) test -race ./internal/obs/... ./internal/doctor/... ./internal/netsim/... ./internal/edge/... ./internal/chaos/... ./internal/cluster/... ./internal/baselines/... ./internal/parallel/... ./internal/imgx/... ./internal/codec/... ./internal/world/... ./internal/core/... ./internal/sim/...

# The second vet compiles the side of the GOARCH splits this machine does not
# run (internal/imgx's kernels_other.go, the pure-Go row kernels, and
# internal/codec's quantize_other.go, transform_other.go, deblock_other.go and
# intra_other.go)
# and type-checks their callers; the first covers asmdecl on the amd64 stubs.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/imgx/ ./internal/codec/

# Full benchmark sweep (BenchmarkExperiments in bench_test.go regenerates
# every table at smoke scale and is slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Telemetry overhead benchmarks. The machine-independent half of "telemetry
# off is free" — the nil-recorder paths allocate nothing — is gated by
# bench-alloc; the wall-clock half (a disabled span stays within a few ns/op)
# is read off this target.
bench-obs:
	$(GO) test -run xxx -bench . -benchtime 2s ./internal/obs/

# Smoke run + automated diagnosis (the CI bench-smoke job), both halves
# machine-independent: export a healthy-run decision journal and have
# divedoctor check it for journal pathologies, then run the packing ladder
# to 4 streams and have divedoctor check its runtime series for GC pressure.
# Exit 1 on any finding. Wall-clock speed is not judged here: that is the repo
# benchmark's job (make benchmark, alternated parent/change pairs).
bench-smoke:
	$(GO) run ./cmd/divetrace -format journal -duration 2 -o smoke.journal.jsonl
	$(GO) run ./cmd/divedoctor -journal smoke.journal.jsonl -json
	$(GO) run ./cmd/divebench -scale smoke -only none -streams 4 -streams-secs 2 -runtime-log streams_runtime.jsonl -json streams_smoke.json
	$(GO) run ./cmd/divedoctor -runtime streams_runtime.jsonl -json

# Allocation gate (the CI bench-alloc job): run the steady-state encode and
# decode benchmarks, a forced I-frame's encode, the rate-control trial,
# rate-control search, entropy-writer, entropy-reader and loop-filter
# benchmarks, the agent's rotation and FOE estimates, the whole agent loop,
# the telemetry-off paths of internal/obs and the server's two
# per-frame wire paths with -benchmem and fail if allocs/op or B/op regressed
# past the committed ci/alloc_baseline.json. The pooled encoder, the session
# decoder, a trial pass, a whole search, the entropy writer and reader, the
# loop filter, every nil-recorder instrumentation path (span, counter,
# trace, labeled family, SLO — what each end-to-end number in BENCHMARK.json
# runs with), the journal's O(1) amend-by-frame, reading a frame out of the
# MsgReader's buffer and writing a result through the connection's are all
# pinned at 0 allocs/op, a forced I-frame's whole encode and both
# ego-motion estimates on a warm scratch too, and a
# core.Agent frame (ProcessFrame + TrackLocally + feedback) at the 14
# objects it hands to its caller; allocation counts are deterministic after warm-up, so this gate is
# machine-independent (unlike wall-clock latency baselines).
#
# The per-frame rows (codec, core, mvfield) run 20 iterations; the nanosecond-scale rows
# (obs, edge) run 2000, so that one runtime background allocation landing
# inside the window (≈ 5.5 kB, seen about one run in ten) rounds to ≤ 3 B/op
# instead of reading 275 B/op against the 64 B floor.
ALLOC_BENCH = EncodeSteadyState|EncodeIFrame|DecodeSteadyState|RCTrial|RCSearch|WriteCoeffs|ReadCoeffs|DeblockFrame|AgentProcessFrame|EstimateFOE|EstimateRotation|SpanDisabled|CounterDisabled|TraceDisabled|LabeledCounterDisabled|LabeledHistogramDisabled|SLODisabled|JournalAmendFrameDense|WireFrameRead|WireResultWrite
ALLOC_RUN = ( $(GO) test -run xxx -bench '$(ALLOC_BENCH)' -benchtime 20x -benchmem ./internal/codec/ ./internal/core/ ./internal/mvfield/ && \
	$(GO) test -run xxx -bench '$(ALLOC_BENCH)' -benchtime 2000x -benchmem ./internal/obs/ ./internal/edge/ ) | tee bench_alloc.txt
bench-alloc:
	$(ALLOC_RUN)
	$(GO) run ./cmd/divedoctor -alloc bench_alloc.txt -alloc-baseline ci/alloc_baseline.json -json

# Regenerate the committed allocation baseline after an intentional change to
# the steady-state encode, decode, rate-control or emission path, to what the
# agent hands out per frame, to the telemetry-off paths or to the wire read /
# reply paths, then commit
# ci/alloc_baseline.json.
alloc-baseline:
	$(ALLOC_RUN)
	$(GO) run ./cmd/divedoctor -alloc bench_alloc.txt -write-alloc-baseline ci/alloc_baseline.json

# The repo benchmark (BENCHMARK.json): four closed-loop workloads — agent on
# a clear and on a tight link, server replay, live lock-step — with nine
# end-to-end metrics each and a traced per-layer run. It is a Go module of
# its own under benchmark/ (see benchmark/README.md); pass arguments with
# ARGS, e.g. make benchmark ARGS="-workload server_replay -out r.json".
benchmark:
	bash benchmark/run.sh $(ARGS)

# The benchmark's own unit tests plus a -quick smoke of all four workloads.
# Tier-1 `go test ./...` does not see them (separate module).
benchmark-test:
	cd benchmark && $(GO) test -short ./...

# Chaos smoke (the CI chaos-smoke job): the seeded fault-injection suite
# under -race — scripted scenario traces through the simulator, the
# proxy/conn wrapper's own tests, and the live client↔server runs under
# disconnects, corruption and blackouts, the blackout ladder test 20 times
# over (it once flaked on a wall-clock blackout) — then a divedoctor gate
# proving the recovery detectors (reconnect-storm, slow-recovery) stay silent
# on a healthy-run journal.
chaos-smoke: doctor-live
	$(GO) test -race ./internal/chaos/...
	$(GO) test -race -run 'Chaos' ./internal/sim/
	$(GO) test -race -run 'TestClient|TestServer|TestGraceful' ./internal/edge/
	$(GO) test -race -run '^TestClientLadderEngagesUnderBlackout$$' -count=20 ./internal/edge/
	$(GO) run ./cmd/divetrace -format journal -duration 2 -o smoke.journal.jsonl
	$(GO) run ./cmd/divedoctor -journal smoke.journal.jsonl

# Cluster failover smoke (part of the CI chaos-smoke job): the balancer,
# membership and kill-mid-clip tests under -race, then the end-to-end
# kill-a-server drill in ci/cluster_smoke.sh — a seed-chosen member of a
# 3-member cluster dies at half-clip and divedoctor must grade exactly one
# bounded migration-gap (warn) and zero failover-storm findings from the
# exported session journals.
cluster-smoke:
	$(GO) test -race ./internal/cluster/
	ci/cluster_smoke.sh

# Live-observability smoke: a paced chaos run served over HTTP, tailed by
# divedoctor -follow, asserting outage findings stream as JSONL while the
# run is still going (see ci/doctor_live.sh).
doctor-live:
	ci/doctor_live.sh

# Fleet smoke (the CI fleet-smoke job): the fleet simulator and aggregation
# plane under -race, then the end-to-end gates in ci/fleet_smoke.sh — seeded
# model runs must be byte-identical, a scripted slow link must stream a
# straggler-session finding out of a live /debug/fleet endpoint, and the
# healthy fleet must diagnose clean.
fleet-smoke:
	$(GO) test -race ./internal/fleet/ ./internal/obs/ ./internal/doctor/
	ci/fleet_smoke.sh

# Native fuzzing smoke over everything that parses network bytes — the edge
# wire decoders, the codec's bitstream decoder and its coefficient reader (the
# register-resident window against the ReadUE loop it replaced) — over the
# entropy writer (the mask walk against the writer it replaced), and over the
# kernels whose amd64 bodies are assembly (the row kernels, the block
# quantizer, the block transforms, the deblocking filter, the intra mode
# decision), and over the FOE fit's filtered inlier predicate (against the
# Residual it must agree with on every float64). Go allows exactly one -fuzz
# pattern per invocation, so each target gets its own short run.
fuzz-smoke:
	$(GO) test -fuzz=FuzzHello -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzFrameMsg -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzResultMsg -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzMsgReader -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzRedirectMsg -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzReadCoeffs -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzWriteCoeffs -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzSAD16 -fuzztime=10s -run 'xxx' ./internal/imgx/
	$(GO) test -fuzz=FuzzQuantizeBlock -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzTransform -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzDeblock -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzChooseIntra -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzFOEInliers -fuzztime=10s -run 'xxx' ./internal/mvfield/

# Non-test, non-generated Go and assembly lines per package and for the whole
# repo (the benchmark module included): the number ROADMAP's simplicity items
# aim at.
LOC = find $(1) \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './.bench_build/*' | xargs grep -L '^// Code generated' | xargs cat | wc -l
loc:
	@for d in internal/* cmd/*; do printf '%-24s %6d\n' $$d $$($(call LOC,$$d)); done
	@printf '%-24s %6d\n' total $$($(call LOC,.))

clean:
	$(GO) clean ./...
	rm -f bench_results.json smoke.journal.jsonl bench_alloc.txt streams_smoke.json streams_runtime.jsonl
