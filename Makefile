GO ?= go

.PHONY: build test alloc-budgets perfbench-test vet lint race store-race front-repeat cover fuzz-smoke service-smoke front-smoke monitor-smoke synth-smoke generate generate-check hooks ci

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

# synth-smoke proves the adversarial QA loop end to end at a fixed seed:
# the planted camouflage gap (reboot-restore conjunction) is rediscovered
# by the fuzzer and delta-debugged to its one-leaf core, and every gap
# fixture under internal/synth/testdata/gaps replays deactivated against
# the stock DB (i.e. the fixes that closed those gaps still hold). The
# reference campaign (seed 1, 2000 generations) must keep its coverage
# growth and its actionable gaps per kind (TestCampaignHeadline).
synth-smoke:
	$(GO) test -count=1 -run 'TestPlantedGap|TestGapFixtures|TestCampaignHeadline' -v ./internal/synth

# service-smoke drives a real scarecrowd over localhost end to end: a
# cached verdict replay, a catalog campaign sweep over SSE rerun entirely
# from the cache, and a SIGKILL + restart that must replay committed
# verdicts byte-identical from the WAL.
service-smoke:
	bash scripts/service-smoke.sh

# monitor-smoke drives the real-time deterrence tier end to end over
# localhost: a streamed /v1/monitor run must emit a detection frame
# before its deterred verdict, replay byte-identical with the cache
# bypassed, and observe mode must show the loss the kill prevented.
monitor-smoke:
	bash scripts/monitor-smoke.sh

# front-smoke drives scarefront's scale-out tier end to end over
# localhost: routed verdicts with byte-identical cached replays, and a
# kill -9 of one backend mid-campaign that must resume from its WAL
# checkpoint and finish with every cell reported exactly once.
front-smoke:
	bash scripts/front-smoke.sh

# hooks installs the repo's pre-commit hook (vet + scarelint) into .git.
hooks:
	install -m 0755 scripts/pre-commit .git/hooks/pre-commit
	@echo "installed .git/hooks/pre-commit (go vet + scarelint)"

# ci mirrors .github/workflows/ci.yml: the tier-1 verify plus the static
# checks. `make ci` green locally means CI is green.
ci: build vet lint generate-check race alloc-budgets store-race front-repeat perfbench-test cover fuzz-smoke synth-smoke service-smoke front-smoke monitor-smoke
