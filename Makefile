# Tier-1 gate (see ROADMAP.md): every PR must pass `make check`.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet lint build test race fuzz bench bench-pool bench-fold bench-sim bench-load bench-core bench-harness

# Every target runs in turn and reports its wall time, so a slow gate names
# the step that made it slow.
CHECK_TARGETS = vet lint build test race fuzz bench-harness

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
# schedule-dependent failures, then again at constrained and oversubscribed
# GOMAXPROCS — shard, wake-up, singleflight, push hand-off, admission and
# span-ring races surface at different parallelism levels: the lock-striped
# pool and its optimistic-read proofs (torn reads, linearizability), the
# manager's park/wake protocol, the runner with its replay, chaos, push and
# span suites, the service, the shared-aggregation consumers, the trace ring,
# and the root package's span and aggregation runs. See CONCURRENCY.md for the
# deterministic seed-replay environment used to debug anything this finds.
# The experiments run in virtual time, where sim.Kernel's processes are
# coroutines that hand control to each other directly: the detector has no
# interleaving to find there, so that package gets one -short pass (the shape
# tests) instead of two full ones.
race:
	$(GO) test -race -short -timeout 30m ./internal/experiments
	$(GO) test -race -count=2 -timeout 30m $$($(GO) list ./internal/... | grep -v '/internal/experiments$$')
	$(GO) test -race -cpu 2,8 ./internal/buffer ./internal/core ./internal/realtime ./internal/telemetry ./internal/server ./internal/exec ./internal/trace
	$(GO) test -race -cpu 2,8 -run 'TestSpan|TestRunRealtimeAggregates' .

# Short coverage-guided fuzz passes: the SQL parser, the buffer pool's
# operation-sequence fuzzer (which also covers the replacement-policy and
# translation-table choices plus mutations of the scan source the predictive
# policy reads), and the translation-directory fuzzer (chunked COW growth,
# range discipline, overflow ids), the tuple decoder under arbitrary schemas,
# column sets and page bytes (never panics, never reads past the buffer,
# agrees with the full decode), and the service's frame decoder (never
# panics, rejects a bad length before allocating, truncation is an EOF,
# requests round-trip); each runs FUZZTIME, and a longer session is one
# FUZZTIME=5m away.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -fuzz FuzzPoolOps -fuzztime $(FUZZTIME) ./internal/buffer
	$(GO) test -fuzz FuzzTranslation -fuzztime $(FUZZTIME) ./internal/buffer
	$(GO) test -fuzz FuzzDecodeColumns -fuzztime $(FUZZTIME) ./internal/record
	$(GO) test -run FuzzReadFrame -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/server

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

# One progress report to the scan sharing manager, its per-extent hot path,
# with 8, 64 and 512 live scans over 1 and 4 tables, from one goroutine and
# from GOMAXPROCS goroutines at once. Its zero allocations are pinned in
# tier-1 by TestReportProgressDoesNotAllocate; a measured run is in
# EXPERIMENTS.md.
bench-core:
	$(GO) test -run '^$$' -bench BenchmarkReportProgress -benchmem ./internal/core

# The repo benchmark (BENCHMARK.json, benchmark/) is a module of its own that
# `./...` does not reach: vet and test the harness, then run every workload
# once at reduced scale with all oracles on.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -quick
