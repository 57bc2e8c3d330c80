GO ?= go

.PHONY: build test alloc-budgets perfbench-test vet lint lint-fix lint-sarif race store-race front-repeat cover fuzz-smoke service-smoke front-smoke monitor-smoke bench-hotpath bench-synth bench-monitor synth-smoke generate generate-check hooks ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench-test runs the benchmark module's own tests (its workloads'
# smoke runs against the lab's byte-identical verdicts). perfbench is a
# nested module, so the root `go test ./...` never reaches it.
perfbench-test:
	cd perfbench && $(GO) test ./...

vet:
	$(GO) vet ./...

# scarelint is the repo's own static-analysis suite (internal/lint): it
# enforces the simulation's consistency invariants — no dropped
# winapi.Status results, hook names in sync with winapi's apiCatalog and
# the engine handler table, no wall-clock/global-RNG reads in simulation
# packages, fully-populated trace events, full apiCatalog reachability,
# and deterministic map iteration on every ordered output path.
lint:
	$(GO) run ./cmd/scarelint ./...

# lint-fix applies scarelint's suggested fixes (statusfix): explicit
# `_ =` discards for dropped Status results and collect-sort-iterate
# rewrites for order-leaking map ranges. Idempotent and gofmt-clean.
lint-fix:
	$(GO) run ./cmd/scarelint -fix ./...

# lint-sarif writes the SARIF 2.1.0 log CI uploads as an artifact.
lint-sarif:
	$(GO) run ./cmd/scarelint -sarif ./... > scarelint.sarif

race:
	$(GO) test -race ./...

# alloc-budgets runs the testing.AllocsPerRun budget tests without the race
# detector. `race` cannot stand in for them: the race detector defeats
# sync.Pool reuse, so the pooled-path budgets skip themselves under -race.
alloc-budgets:
	$(GO) test -count=1 -run AllocBudget ./...

# store-race repeats the store's compaction, concurrency and crash-point
# tests under the race detector: compaction merges with the store lock
# released, so an interleaving bug shows only in some schedules.
store-race:
	$(GO) test -race -count=10 -run 'Compact|Concurrent|Background|Crash' ./internal/store

# front-repeat repeats the front's campaign-recovery tests under the race
# detector: a backend's event ring wrapping while the front is cut off,
# and a backend restarting mid-campaign, each race a live stream against
# the lab, so a timing bug shows only in some runs.
front-repeat:
	$(GO) test -race -count=20 -run 'RingWrap|RestartMidCampaign' ./internal/front

# cover enforces statement-coverage floors on the packages whose failure
# modes are subtle: the snapshot pool (winsim, analysis) and the durable
# verdict store. Floors sit below current coverage with margin for
# flutter, and exist to catch a PR that lands a subsystem without tests —
# not to chase decimal points.
cover:
	$(GO) test -short -coverprofile=cover_winsim.out ./internal/winsim
	$(GO) test -short -coverprofile=cover_analysis.out ./internal/analysis
	$(GO) test -short -coverprofile=cover_store.out ./internal/store
	@$(GO) tool cover -func=cover_winsim.out | awk '/^total:/ { c=$$3+0; \
		if (c < 90) { printf "FAIL: internal/winsim coverage %.1f%% < 90%%\n", c; exit 1 } \
		printf "internal/winsim coverage %.1f%% (floor 90%%)\n", c }'
	@$(GO) tool cover -func=cover_analysis.out | awk '/^total:/ { c=$$3+0; \
		if (c < 75) { printf "FAIL: internal/analysis coverage %.1f%% < 75%%\n", c; exit 1 } \
		printf "internal/analysis coverage %.1f%% (floor 75%%)\n", c }'
	@$(GO) tool cover -func=cover_store.out | awk '/^total:/ { c=$$3+0; \
		if (c < 85) { printf "FAIL: internal/store coverage %.1f%% < 85%%\n", c; exit 1 } \
		printf "internal/store coverage %.1f%% (floor 85%%)\n", c }'

# fuzz-smoke gives the deterministic-state fuzzers a short budget on every
# CI run: snapshot/restore round-trips, WAL record decoding, the predicate
# codec, the detector window and the verdict trigger table. Found inputs
# land in testdata/fuzz and become regression tests.
fuzz-smoke:
	$(GO) test -fuzz=FuzzSnapshotRestore -fuzztime=10s -run '^$$' ./internal/winsim
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzPredicateCodec -fuzztime=10s -run '^$$' ./internal/synth
	$(GO) test -fuzz=FuzzDetectorWindow -fuzztime=10s -run '^$$' ./internal/deter
	$(GO) test -fuzz=FuzzTriggerTable -fuzztime=10s -run '^$$' ./internal/analysis

# generate regenerates the checked-in code: the per-struct snapshot clone
# methods in internal/winsim/snapshot_gen.go (kept honest by the
# snapshotSpec reflection test and the generate-check diff gate).
generate:
	$(GO) generate ./internal/winsim

# generate-check fails if the checked-in generated code is stale — i.e.
# someone edited a cloned struct without re-running make generate.
generate-check: generate
	@git diff --exit-code internal/winsim/snapshot_gen.go || \
		{ echo "FAIL: internal/winsim/snapshot_gen.go is stale; run 'make generate' and commit the result"; exit 1; }

# bench-hotpath measures the in-process cold verdict pipeline and the
# per-stage allocation budgets, writing BENCH_hotpath.json. The gates are
# regression tripwires: the cold rate must stay at least 5x the honest
# pre-optimization baseline (~90 uncached verdicts/s — see
# cmd/scarebench/hotpath.go for the derivation) and the clone/record/
# marshal/commit stages must stay within their allocs/op budgets.
bench-hotpath:
	$(GO) run ./cmd/scarebench -hotpath -min-cold-speedup 5 -hotpath-out BENCH_hotpath.json

# synth-smoke proves the adversarial QA loop end to end at a fixed seed:
# the planted camouflage gap (reboot-restore conjunction) is rediscovered
# by the fuzzer and delta-debugged to its one-leaf core, and every gap
# fixture under internal/synth/testdata/gaps replays deactivated against
# the stock DB (i.e. the fixes that closed those gaps still hold).
synth-smoke:
	$(GO) test -count=1 -run 'TestPlantedGap|TestGapFixtures' -v ./internal/synth

# bench-synth runs a fixed-seed coverage-guided fuzzing campaign and
# writes BENCH_synth.json. The -min-cov-growth gate fails the build when
# unique-coverage growth drops below 15 keys per 1k generations (the
# seed-1 campaign measures ~42/1k; a fuzzer below the floor has lost its
# search signal to a generator or coverage-extraction regression).
bench-synth:
	$(GO) run ./cmd/scarebench -synth -synth-seed 1 -synth-budget 2000 -min-cov-growth 15 -synth-out BENCH_synth.json

# service-smoke drives a real scarecrowd over localhost end to end:
# classic cache/coalescing bench, cold+warm campaign sweep over SSE, and
# a SIGKILL + restart that must replay committed verdicts byte-identical
# from the WAL. Artifacts: BENCH_service.json, BENCH_campaign.json.
service-smoke:
	bash scripts/service-smoke.sh

# monitor-smoke drives the real-time deterrence tier end to end over
# localhost: a streamed /v1/monitor run must emit a detection frame
# before its deterred verdict, replay byte-identical with the cache
# bypassed, and observe mode must show the loss the kill prevented.
monitor-smoke:
	bash scripts/monitor-smoke.sh

# bench-monitor runs every catalog ransomware row (stock and
# evasive-gated) under the deterrence tier across four seeds each and
# writes BENCH_monitor.json. The gates are the tier's headline numbers:
# 100% detection rate and a median of at most 5 real files lost before
# the kill.
bench-monitor:
	$(GO) run ./cmd/scarebench -monitor -monitor-seeds 4 -min-detection-rate 1.0 -max-median-files-lost 5 -monitor-out BENCH_monitor.json

# front-smoke drives scarefront's scale-out tier end to end over
# localhost: the front bench (fleets of 2 and 4 gated at 0.7 x
# min(N, GOMAXPROCS) x the single-backend warm rate), routed verdicts
# with byte-identical cached replays, and a kill -9 of one backend
# mid-campaign that must resume from its WAL checkpoint and finish with
# every cell reported exactly once. Artifact: BENCH_front.json.
front-smoke:
	bash scripts/front-smoke.sh

# hooks installs the repo's pre-commit hook (vet + scarelint) into .git.
hooks:
	install -m 0755 scripts/pre-commit .git/hooks/pre-commit
	@echo "installed .git/hooks/pre-commit (go vet + scarelint)"

# ci mirrors .github/workflows/ci.yml: the tier-1 verify plus the static
# checks. `make ci` green locally means CI is green.
ci: build vet lint generate-check race alloc-budgets store-race front-repeat perfbench-test cover fuzz-smoke synth-smoke bench-hotpath bench-synth bench-monitor service-smoke front-smoke monitor-smoke
