# Tier-1 gate (see ROADMAP.md): every PR must pass `make check`.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet lint build test race fuzz test-policies test-translation test-serve test-push test-spans bench bench-pool bench-fold bench-sim bench-load bench-harness

# Every target runs in turn and reports its wall time, so a slow gate names
# the step that made it slow.
CHECK_TARGETS = vet lint build test race fuzz test-policies test-translation test-serve test-push test-spans bench-harness

check:
	@begin=$$(date +%s); \
	for t in $(CHECK_TARGETS); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$t || exit 1; \
		echo "== $$t: $$(( $$(date +%s) - start )) s"; \
	done; \
	echo "== check: $$(( $$(date +%s) - begin )) s"

vet:
	$(GO) vet ./...

# gofmt over both modules (the root and benchmark/; .bench_build/ holds the
# benchmark's build cache, not sources): any file it would rewrite fails the
# target. Then deeper static analysis when staticcheck is installed; falls
# back to an extended vet configuration otherwise so `make check` works on a
# bare toolchain.
lint:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt would rewrite:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; running go vet with extra analyzers"; \
		$(GO) vet -unusedresult -copylocks -atomic -bools -nilfunc ./...; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent layers, run twice to shake out
# schedule-dependent failures, then again over the lock-striped pool, the
# manager's park/wake protocol and the coalescing runner at constrained and
# oversubscribed GOMAXPROCS — shard, wake-up and singleflight races surface
# at different parallelism levels. See CONCURRENCY.md for the deterministic
# seed-replay harness used to debug anything this finds.
# The experiments run in virtual time, where sim.Kernel's processes are
# coroutines that hand control to each other directly: the detector has no
# interleaving to find there, so that package gets one -short pass (the shape
# tests) instead of two full ones.
race:
	$(GO) test -race -short -timeout 30m ./internal/experiments
	$(GO) test -race -count=2 -timeout 30m $$($(GO) list ./internal/... | grep -v '/internal/experiments$$')
	$(GO) test -race -cpu 2,8 ./internal/buffer ./internal/core ./internal/realtime ./internal/telemetry

# Short coverage-guided fuzz passes: the SQL parser, the buffer pool's
# operation-sequence fuzzer (which also covers the replacement-policy and
# translation-table choices plus scan-registration events), and the
# translation-directory fuzzer (chunked COW growth, range discipline,
# overflow ids), and the tuple decoder under arbitrary schemas, column sets
# and page bytes (never panics, never reads past the buffer, agrees with the
# full decode); a longer session is one FUZZTIME=5m away.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -fuzz FuzzPoolOps -fuzztime $(FUZZTIME) ./internal/buffer
	$(GO) test -fuzz FuzzTranslation -fuzztime $(FUZZTIME) ./internal/buffer
	$(GO) test -fuzz FuzzDecodeColumns -fuzztime $(FUZZTIME) ./internal/record

# The differential policy harness: reference-model equivalence for every
# replacement policy across shard counts, the estimator edge cases, the
# replay-determinism regression, and a race pass over the same suites with
# the predictive scan-feed path live.
test-policies:
	$(GO) test -run 'TestPoolMatchesReferenceModel|TestShardedPoolMatchesModel|TestNextUseEstimate|TestPredictiveVictimChoice' ./internal/buffer
	$(GO) test -run 'TestPolicyReplay|TestGoldenChaosTrace' ./internal/realtime
	$(GO) test -race -run 'TestShardedPoolMatchesModel|TestPolicyReplayDeterminism' ./internal/buffer ./internal/realtime

# The optimistic-translation proof obligations (see CONCURRENCY.md): the
# translation edge cases and differential matrix, the torn-read detector and
# linearizability harness under the race detector at constrained and
# oversubscribed GOMAXPROCS, and the array-translation replay-determinism
# regression against the cooperative scheduler.
test-translation:
	$(GO) test -run 'TestTranslation|TestOptimistic|TestEvictionRacesValidatingReader|TestVersionWraparound|TestErrAllPinnedParity|TestMapTranslationNoOptimisticPath' ./internal/buffer
	$(GO) test -race -cpu 2,8 -run 'TestOptimisticTornReads|TestOptimisticLinearizability' ./internal/buffer
	$(GO) test -run 'TestTranslationReplayDeterminism' ./internal/realtime

# The multi-tenant scan service suite under the race detector: wire protocol
# edge cases, admission fast/queue/shed paths, deterministic weighted
# round-robin dispatch, the 64-client x 4-tenant overload acceptance run
# (shed > 0, per-tenant fairness within 10%), and the detach/rejoin chaos
# run proving admission slots are released exactly once.
test-serve:
	$(GO) test -race -cpu 2,8 ./internal/server

# The push-delivery proof obligations (see CONCURRENCY.md): the push-vs-pull
# differential parity harness (byte-identical results, order-normalized page
# visit equivalence, trace-journal exactly-once footprint tiling), the
# backpressure starvation bound, the seeded chaos suite with same-seed
# replay, the engine-level aggregation parity (pull/private vs push/private
# vs push/shared, one physical scan), the shared-state unit suite, and the
# aliasing suite (decoded varchars are views into the delivered page, so
# nothing a fold or an operator retains may point into it) — all under the
# race detector at constrained and oversubscribed GOMAXPROCS.
test-push:
	$(GO) test -race -cpu 2,8 -run 'TestPush|FuzzPushSubscribe' ./internal/realtime
	$(GO) test -race -cpu 2,8 -run 'TestShared|TestGroupByConsumer|TestAliasing' ./internal/exec
	$(GO) test -race -run 'TestRunRealtimeAggregates|TestServePushDelivery|TestDriverShedRetry' . ./internal/server

# The causal-span proof obligations (see DESIGN.md's tracing section and
# CONCURRENCY.md's ordering guarantees): span lifecycle/assembly units, the
# drop-tolerant close-only reconstruction, chaos span-tree completeness under
# fault-injected detach/rejoin and push demotion, shed-path request trees,
# the ring-overflow dropped-count regression, the SLO flight-dump latch, and
# the end-to-end acceptance run (span total within 1% of driver RTT, gap
# <= 2%) — all under the race detector at constrained and oversubscribed
# GOMAXPROCS.
test-spans:
	$(GO) test -race -cpu 2,8 -run 'TestSpan' ./internal/trace ./internal/realtime ./internal/server ./internal/telemetry .

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Pool lock-contention surface: the acquire/release hot path across shard
# counts and GOMAXPROCS, plus the translation A/B on read-mostly hits
# (see EXPERIMENTS.md and DESIGN.md for interpreting the matrices); then the
# single-goroutine miss path (acquire, evict, fill, release) under both
# translations, whose allocation ceiling TestPoolPathDoesNotAllocate pins.
bench-pool:
	$(GO) test -run '^$$' -bench 'BenchmarkPoolAcquireRelease|BenchmarkPoolAcquireHitParallel' -benchmem -cpu 1,4,8 ./internal/buffer
	$(GO) test -run '^$$' -bench BenchmarkPoolMissFillEvict -benchmem ./internal/buffer

# The per-tuple path in isolation: one lineitem page decoded (all columns, and
# the four Q1 reads) and folded with Q1's shape (private table, shared striped
# table). The allocation ceilings these imply are pinned in tier-1 by
# TestForEachDoesNotAllocate and TestFoldAllocations.
bench-fold:
	$(GO) test -run '^$$' -bench 'BenchmarkDecodePage|BenchmarkGroupByPage' -benchmem ./internal/heap ./internal/exec

# What one Proc.Sleep costs in the virtual-time kernel: alone (the clock
# advances in place) and handing over between 2 and 8 processes; and what one
# period of a Proc.Poll costs whose condition Run checks without resuming the
# poller (poll). The zero allocations are pinned in tier-1 by
# TestSleepDoesNotAllocate and TestPollDoesNotAllocate.
bench-sim:
	$(GO) test -run '^$$' -bench BenchmarkKernelSleep -benchmem ./internal/sim

# The set-up every repository benchmark repetition pays: one scale-40
# workload.Load (about 16 200 pages) into a fresh engine, timed without the
# engine's construction. The allocation ceiling it implies — two per page and
# a constant, nothing per row — is pinned in tier-1 by TestLoadTableAllocations,
# and the pages themselves by the TestLoadMatchesReference oracles.
bench-load:
	$(GO) test -run '^$$' -bench BenchmarkLoad -benchmem ./internal/workload

# The repo benchmark (BENCHMARK.json, benchmark/) is a module of its own that
# `./...` does not reach: vet and test the harness, then run every workload
# once at reduced scale with all oracles on.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -quick
