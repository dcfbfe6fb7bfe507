GO ?= go
# bash + pipefail so piping through tee cannot mask a benchmark failure.
SHELL := /bin/bash -o pipefail

.PHONY: all build vet test race bench bench-persist bench-mwmr fuzz integration torture torture-short bench-module e2e loc

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the hot-path experiment benchmarks (E7 in-process latency,
# E9 sharded-Store throughput, E10 durability tax, E11 multi-writer
# contention, E12 adaptive-round split, E13 pipelined wire transport,
# E16 adaptive read path) the way CI records them; output feeds the
# benchmark trajectory in EXPERIMENTS.md. Nothing gates on these single-run
# ns/op figures: a before/after claim is alternating parent/change pairs of
# the repository benchmark (bench/, `make e2e`).
bench:
	$(GO) test -run xxx -bench 'E7|E9|E10|E11|E12|E13|E16' -benchmem -count=3 . | tee bench.txt

# bench-module vets and tests the repository benchmark (bench/, its own Go
# module compiled against internal/ — outside `go build ./...`, so a change
# to a signature or counter name it uses breaks it silently otherwise).
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# e2e runs the repository benchmark end to end (BENCHMARK.json): each of the
# four workloads untraced — the end-to-end metrics, with every read checked
# inline — then traced, for the per-layer ledger. ~4 minutes.
E2E_WORKLOADS := small_mixed durable_put bigtable_read byz_t2_mixed
e2e:
	for t in 0 1; do for w in $(E2E_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 20 --trace $$t || exit 1; \
	done; done

# loc prints the size every simplicity PR reports (EXPERIMENTS.md E21, E22):
# lines of non-test Go outside the benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

# bench-mwmr isolates the multi-writer contention experiment (E11).
bench-mwmr:
	$(GO) test -run xxx -bench E11 -benchmem .

# fuzz runs the CI fuzz smoke locally: the hand-rolled codecs must never
# panic and accepted inputs must round-trip.
fuzz:
	$(GO) test -fuzz FuzzTableCodec -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzDecodePair -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzSnapshotRestore -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzSplice -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzWireRequest -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzWireBatch -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzWALReplay -fuzztime 30s ./internal/persist/

# bench-persist measures the durability subsystem: the E10 Store write path
# at each fsync mode plus the raw WAL append micro-benchmark.
bench-persist:
	$(GO) test -run xxx -bench E10 -benchmem .
	$(GO) test -run xxx -bench WALAppend -benchmem ./internal/persist/

# integration drills the real binaries: 4-daemon durable cluster, kill -9,
# restart from disk, quorum repair of a wiped daemon, degraded reads.
# TORTURE=full make integration appends the full-scale torture suite
# (the nightly configuration).
integration:
	./scripts/integration.sh

# torture-short is the CI-bounded deterministic torture drill under -race:
# fixed-seed fault schedules (all five scenarios on the simulator, each run
# twice to one digest; Byzantine mix, kill-9+restart+wipe+repair and
# membership churn over real TCP daemons too) at reduced scale, every per-key
# history decided by the atomicity checker and every object's raw state swept
# by doctor at quiesce (each run logs its read path mix) — then the
# regressions that only repetition keeps honest: the repair drill (a repaired object holds what completed, 200
# times over), repair beside a reader (the repairing process reads as its
# own identity, 50 times), the fast hit's safety matrix (crashed writer × Byzantine
# behaviour × concurrent readers, both models, 20 times), and suspicion-
# ordered rounds: the t = 2 drill (two liars learned, deferred, reinstated,
# followed) and the honest racing-flush drill (nobody deferred), 20 times,
# then the same safety matrix over real sockets with nobody, the Byzantine
# object or a correct object deferred, for every k, and the protocol points
# scripted on the simulator (a batched round, suspect deferred + hedge fired,
# wrong epoch, crash with a disk), 20 times, and on the simulator under the
# whole Store: a seed replays its execution (event trace and histories) and
# the scripted Store points (flush rebased, ack lost and retried, config
# decided with the newcomer unseeded, register transferred with the epoch
# unsealed, a Get inside the process's own flush, an object cut off for one
# flush catching up, a write refused for a stale epoch finishing its pair),
# 20 seeds 20 times. ~6 minutes.
torture-short:
	$(GO) test -race -run TestTortureShort -v -timeout 600s ./internal/torture/
	$(GO) test -race -run TestRepairReconstitutesWipedObject -count=200 -timeout 600s .
	$(GO) test -race -run TestRepairBesideAReader -count=50 -timeout 600s .
	$(GO) test -race -run TestCrashedWriterByzantineReadMatrix -count=20 -timeout 600s ./internal/core/
	$(GO) test -race -short -run 'TestSuspicionOrderedRounds|TestHonestRacingFlushesDeferNobody' -count=20 -timeout 900s .
	$(GO) test -race -run TestDeferralSafetyMatrix -count=3 -timeout 600s ./internal/tcpnet/ -args -tcpnet.fullmatrix
	$(GO) test -race -run TestScripted -count=20 -timeout 600s ./internal/sim/
	$(GO) test -race -short -run 'TestSeedReplaysExecution|TestScriptedStore|TestScriptedEpochRetry|TestScriptedWriterLifetimes' -count=20 -timeout 900s ./internal/torture/

# torture is the full-scale drill: seeded schedules over 224 simulated
# clients each (all five scenarios live; kill-9+restart+repair, Byzantine mix
# and membership churn over tcp too), then 5,000 seeds each replaying its
# execution on the simulator, then join-leave on the simulator over seeds
# 1..3,000 (the epoch-retry sweep). A failure prints the seed and a one-line
# replay command that reproduces the identical event schedule — live, the
# identical execution.
torture:
	$(GO) test -run 'TestTortureFull|TestSeedReplaysExecution|TestEpochRetriedFlushResurrects' -v -timeout 3600s ./internal/torture/ -args -torture.full
