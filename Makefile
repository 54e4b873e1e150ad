GO ?= go

.PHONY: all build test experiments portable race vet bench bench-obs bench-smoke benchmark benchmark-test chaos-smoke cluster-smoke doctor-live fleet-smoke fuzz-smoke loc clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The one regeneration command for the evaluation's committed copies: the
# registry golden (every experiment's typed rows at smoke scale,
# internal/experiments/testdata/registry_smoke.json), EXPERIMENTS.md's
# measured tables (the same registry at default scale, ≈ 42 s on 2 vCPUs) and
# its perf ledger (from BENCH_*.json). CI runs it and fails on any diff.
experiments:
	$(GO) test -count=1 -run '^TestRegistryGolden$$' ./internal/experiments/ -update-golden
	$(GO) test -count=1 -run '^TestPerfLedger$$' . -update-golden

# The portable path, run rather than only vetted: as 386 every kernel with an
# amd64 assembly body (internal/imgx's row kernels — the SAD kernels and ssd,
# the squared-error row of MSE and RegionMSE — internal/codec's block
# quantizer, block transforms, deblocking filter and intra mode decision)
# runs its Go body, against the same tests, decoder_golden.json and
# agent_golden.json; internal/world's clip hashes and renderer oracle hold
# the rendered pixels there too. mvfield, detect, obs and edge come along so
# that every steady-state allocation test also holds on a 32-bit build.
# Needs no 386 machine: a linux/amd64 kernel runs 386 binaries.
portable:
	GOARCH=386 $(GO) test ./internal/imgx/ ./internal/codec/ ./internal/core/ ./internal/world/ ./internal/mvfield/ ./internal/detect/ ./internal/obs/ ./internal/edge/

# Race-detector pass (the CI race step) over the concurrency-bearing
# packages (the harness fan-out and renderer bands, telemetry, transports,
# cluster) and the single-goroutine agent and server packages they drive
# (codec, mvfield, core, detect, sim), so every allocation test not tagged
# !race also runs here; doctor is single-goroutine too, but its tests grade
# the journals of real sim.DiVE runs, so it goes with sim.
race:
	$(GO) test -race ./internal/obs/... ./internal/doctor/... ./internal/netsim/... ./internal/edge/... ./internal/chaos/... ./internal/cluster/... ./internal/baselines/... ./internal/parallel/... ./internal/imgx/... ./internal/codec/... ./internal/mvfield/... ./internal/detect/... ./internal/world/... ./internal/core/... ./internal/sim/...

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
# off is free" — the nil-recorder paths allocate nothing — is held by
# internal/obs's AllocsPerRun tests in make test; the wall-clock half (a
# disabled span stays within a few ns/op) is read off this target.
bench-obs:
	$(GO) test -run xxx -bench . -benchtime 2s ./internal/obs/

# Smoke run + automated diagnosis (the CI bench-smoke job), machine-independent:
# export a healthy-run decision journal and have divedoctor check it for
# journal pathologies. The journal is 6 s of RobotCar at 1 Mbps, where rate
# control is tightest, so a base QP that swings frame to frame shows as
# qp-oscillation findings.
# Exit 1 on any finding. Wall-clock speed is not judged here: that is the repo
# benchmark's job (make benchmark, alternated parent/change pairs).
bench-smoke:
	$(GO) run ./cmd/divetrace -format journal -profile RobotCar -mbps 1 -duration 6 -o smoke.journal.jsonl
	$(GO) run ./cmd/divedoctor -journal smoke.journal.jsonl -json

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

# Chaos smoke (the CI chaos-smoke job): the fault-injection suite under
# -race — seeded scenario traces through the simulator, the proxy's and the
# victim pick's own tests, and the live client↔server runs under scripted
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
# model runs must be byte-identical, divedoctor -fleet must report a
# straggler-session finding on a scripted slow link's report, and the
# healthy fleet must diagnose clean.
fleet-smoke:
	$(GO) test -race ./internal/fleet/ ./internal/obs/ ./internal/doctor/
	ci/fleet_smoke.sh

# Native fuzzing smoke over everything that parses network bytes — the edge
# wire decoders, the codec's bitstream decoder, its motion-compensated
# predictor (the word-wide kernel against the scalar one it replaced, at any
# vector) and its coefficient reader (the register-resident window against
# the ReadUE loop it replaced) — over the entropy writer (the mask walk
# against the writer it replaced), and over the kernels whose amd64 bodies
# are assembly (the SAD and squared-error row kernels, the block quantizer,
# the block transforms, the deblocking filter, the intra mode decision), over
# the FOE fit's filtered inlier predicate (against the Residual it must agree
# with on every float64), and over the rate-control search on synthetic
# bits-vs-QP curves (against the plain bisection's QP and its trial count +
# 2). Go allows exactly one -fuzz pattern per invocation, so each target gets
# its own short run.
fuzz-smoke:
	$(GO) test -fuzz=FuzzHello -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzFrameMsg -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzResultMsg -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzMsgReader -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzRedirectMsg -fuzztime=10s -run 'xxx' ./internal/edge/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzPredictBlock -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzReadCoeffs -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzWriteCoeffs -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzSAD16 -fuzztime=10s -run 'xxx' ./internal/imgx/
	$(GO) test -fuzz=FuzzSSD -fuzztime=10s -run 'xxx' ./internal/imgx/
	$(GO) test -fuzz=FuzzQuantizeBlock -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzTransform -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzDeblock -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzChooseIntra -fuzztime=10s -run 'xxx' ./internal/codec/
	$(GO) test -fuzz=FuzzFOEInliers -fuzztime=10s -run 'xxx' ./internal/mvfield/
	$(GO) test -fuzz=FuzzSearchBaseQP -fuzztime=10s -run 'xxx' ./internal/codec/

# Non-test, non-generated Go and assembly lines per package and for the whole
# repo (the benchmark module included): the number ROADMAP's simplicity items
# aim at.
LOC = find $(1) \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './.bench_build/*' | xargs grep -L '^// Code generated' | xargs cat | wc -l
loc:
	@for d in internal/* cmd/*; do printf '%-24s %6d\n' $$d $$($(call LOC,$$d)); done
	@printf '%-24s %6d\n' total $$($(call LOC,.))

clean:
	$(GO) clean ./...
	rm -f bench_results.json smoke.journal.jsonl
