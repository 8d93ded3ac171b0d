GO ?= go

# COUNT is plumbed into every benchmark run (go test -count). benchstat wants
# >= 10 samples: `make bench COUNT=10 > new.txt` produces input it accepts
# directly, and `make bench-compare OLD=old.txt NEW=new.txt` diffs two such
# files.
COUNT ?= 1

# BENCH_LABEL names the column that `make bench-json` records the current
# numbers under in BENCH_pipesim.json (e.g. pr5-before, pr5-after).
BENCH_LABEL ?= current

# BENCH_GUARD_PCT is the ns/op regression tolerance (percent) that
# bench-guard enforces on the hot Run* benchmarks.
BENCH_GUARD_PCT ?= 30

.PHONY: build test vet race bench bench-smoke bench-json bench-json-smoke \
	bench-compare bench-guard fmt fmt-check lint lint-extra ci ci-cmd \
	ci-service ci-fleet ci-faults run-uopsd

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count=$(COUNT) ./...

# bench-smoke runs every benchmark for a single iteration so they cannot
# bit-rot without CI noticing; it reports no meaningful timings.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-json records the perf trajectory: the simulator and LP hot-path
# benchmarks at full fidelity, the per-instruction inference rungs of package
# core (port usage, latency, throughput of one variant on a warm stack), and
# the end-to-end characterization benchmarks (bounded to 2 iterations — they
# run whole sampled ISA characterizations), parsed into BENCH_pipesim.json
# under $(BENCH_LABEL). Existing labels in the file are preserved, so
# successive PRs accumulate comparable columns.
# (The benchmarks write to a temp file first so a failing/panicking
# benchmark run aborts the recipe instead of recording a partial label.)
bench-json:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run='^$$' -bench=. -benchmem -count=$(COUNT) ./internal/pipesim ./internal/lp > "$$tmp"; \
	$(GO) test -run='^$$' -bench='BenchmarkPortUsageInference|BenchmarkLatencyInference|BenchmarkThroughputInference' \
		-benchmem -count=$(COUNT) ./internal/core >> "$$tmp"; \
	$(GO) test -run='^$$' -bench='BenchmarkCharacterize|BenchmarkBlockingDiscovery' -benchmem -benchtime=2x . >> "$$tmp"; \
	cat "$$tmp"; \
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -o BENCH_pipesim.json < "$$tmp"

# bench-json-smoke is the CI gate for the trajectory pipeline: one iteration
# of the hot-path benchmarks piped through the parser, output discarded — it
# proves the pipeline parses real benchmark output without spending CI time
# on meaningful timings.
bench-json-smoke:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./internal/pipesim ./internal/lp > "$$tmp"; \
	$(GO) run ./cmd/benchjson -label smoke -o - < "$$tmp" >/dev/null

# bench-compare diffs two saved benchmark outputs (`make bench > old.txt`).
# benchstat is used when installed; otherwise the built-in comparator prints
# per-benchmark speedups.
bench-compare:
	@if [ -z "$(OLD)" ] || [ -z "$(NEW)" ]; then \
		echo "usage: make bench-compare OLD=old.txt NEW=new.txt"; exit 2; fi
	@if command -v benchstat >/dev/null 2>&1; then benchstat $(OLD) $(NEW); \
	else $(GO) run ./cmd/benchjson -compare $(OLD) $(NEW); fi

# bench-guard is the ns/op regression gate on the hot simulator benchmarks
# (the Run* shapes — the per-Run cost every characterization pays thousands of
# times). With OLD=/NEW= it gates two saved bench outputs directly; otherwise
# it benchmarks the working tree's internal/pipesim against the same
# benchmarks built from HEAD in a temporary git worktree, and fails if any
# benchmark present in both regresses more than BENCH_GUARD_PCT percent
# (averaged over -count=3 to damp scheduler noise; benchmarks that exist only
# on one side cannot regress and are reported but not gated). A tree whose
# internal/pipesim matches HEAD passes immediately without benchmarking, so
# the gate costs clean CI checkouts nothing.
bench-guard:
	@set -e; \
	if [ -n "$(OLD)" ] && [ -n "$(NEW)" ]; then \
		exec $(GO) run ./cmd/benchjson -compare -fail-above=$(BENCH_GUARD_PCT) $(OLD) $(NEW); fi; \
	if git diff --quiet HEAD -- internal/pipesim 2>/dev/null; then \
		echo "bench-guard: internal/pipesim unchanged vs HEAD; nothing to gate"; exit 0; fi; \
	tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/head" >/dev/null 2>&1; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/head" HEAD >/dev/null 2>&1; \
	echo "bench-guard: benchmarking HEAD..."; \
	( cd "$$tmp/head" && $(GO) test -run='^$$' -bench='BenchmarkRun' -count=3 -benchtime=0.3s ./internal/pipesim ) > "$$tmp/old.txt"; \
	echo "bench-guard: benchmarking working tree..."; \
	$(GO) test -run='^$$' -bench='BenchmarkRun' -count=3 -benchtime=0.3s ./internal/pipesim > "$$tmp/new.txt"; \
	$(GO) run ./cmd/benchjson -compare -fail-above=$(BENCH_GUARD_PCT) "$$tmp/old.txt" "$$tmp/new.txt"

# fmt and fmt-check skip testdata trees: analyzer fixtures under
# internal/analysis/**/testdata are lint inputs whose exact layout (including
# deliberately odd formatting) is part of the test, not repository style.
# go build/vet/test skip testdata directories on their own.
fmt:
	find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l -w {} +

fmt-check:
	@out="$$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the repository's own static-analysis suite (cmd/uopslint): the
# five analyzers that machine-check the determinism, arena and concurrency
# invariants. A clean tree is also asserted by the meta-test in
# internal/analysis/uopslint, so `make race` fails on findings too; this
# target is the fast, direct way to see them.
lint:
	$(GO) run ./cmd/uopslint ./...

# lint-extra runs third-party linters when they are installed. The container
# images this repo builds in do not ship them (and cannot fetch them), so
# each tool is skipped with a notice when absent instead of failing.
lint-extra:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint-extra: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint-extra: govulncheck not installed; skipping"; fi

# ci-cmd re-runs the command-level cache determinism tests (mixed warm/cold
# and incremental per-variant eviction) under the race detector, checks
# that the backend registry lists the default pipesim backend through the
# actual CLI surface, and smokes the four commands that have no tests of
# their own — including a flag error, which must exit non-zero and name
# the flag.
ci-cmd:
	$(GO) test -race -run 'TestCacheColdWarmByteIdentical|TestCacheIncrementalEviction' ./cmd/uopsinfo
	$(GO) run ./cmd/uopsinfo -backends | grep -q '^pipesim' || \
		{ echo "uopsinfo -backends does not list pipesim"; exit 1; }
	echo 'ADD RAX, RBX' | $(GO) run ./cmd/analyze -arch Skylake
	$(GO) run ./cmd/table1 -arch Skylake -sample 400 -j 2
	$(GO) run ./cmd/iacadiff -arch Skylake -sample 400 -j 2
	$(GO) run ./cmd/casestudies -id 7.3.1 -j 2
	@stderr=$$($(GO) run ./cmd/casestudies -store-max-bytes bogus 2>&1 >/dev/null) && \
		{ echo "casestudies accepted -store-max-bytes bogus"; exit 1; }; \
	echo "$$stderr" | grep -q -- '-store-max-bytes' || \
		{ echo "casestudies flag error does not name -store-max-bytes: $$stderr"; exit 1; }

# run-uopsd starts the characterization service on its default address
# (localhost:8631) with a local cache directory, the quickest way to poke the
# HTTP API by hand.
run-uopsd:
	$(GO) run ./cmd/uopsd -cache .uopsd-cache -v

# ci-service gates the HTTP characterization service under the race
# detector: the endpoint suite (the deterministic coalescing storm, the
# async-job lifecycle/coalescing/TTL tests, conditional GETs, rate limiting,
# and the panic/format/client-gone regressions), then the end-to-end
# TestUopsd* suite that binds the real uopsd server to an ephemeral port —
# coalescing storm, jobs end to end, rate-limit flags, and shutdown with a
# job still measuring.
ci-service:
	$(GO) test -race -count=1 ./internal/service
	$(GO) test -race -count=1 -run 'TestUopsd' ./cmd/uopsd

# ci-fleet gates the distributed measurement fleet under the race detector:
# the remote backend's unit suite (wire roundtrip with copy counts, the
# fingerprint and wire-version handshake, one batch per RunCopies call,
# retry/hedge/timeout machinery against canned workers), then a 10 s fuzz
# of the worker's sequence decoder (not raced), the loopback end-to-end
# tests — XML byte-identical to a local run through 1/2/3 real workers,
# recovery from a worker killed mid-run, a mixed-fingerprint fleet refused
# at startup, fleet counters in /v1/stats and /metrics — and the -fleet
# flag through the uopsinfo CLI and a uopsd front tier.
ci-fleet:
	$(GO) test -race -count=1 ./internal/measure/remote
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSeq -fuzztime=10s ./internal/measure/remote
	$(GO) test -race -count=1 -run 'TestFleet|TestMeasureEndpoint' ./internal/service
	$(GO) test -race -count=1 -run 'TestFleetFlagMatchesLocal' ./cmd/uopsinfo
	$(GO) test -race -count=1 -run 'TestUopsdFleetFrontTier' ./cmd/uopsd

# ci-faults forces every durability claim the store makes through the
# fault-injecting filesystem (internal/store/errfs) under the race detector:
# torn writes, ENOSPC mid-save, writers killed between temp-write, fsync and
# rename, budget-driven eviction, the startup sweep of stores older versions
# wrote, degradation to read-only/compute-only and probe-driven recovery —
# plus the engine plumbing (byte-identical XML under a byte budget and
# against a dead store) and the /healthz + /metrics degradation surface.
ci-faults:
	$(GO) test -race -count=1 ./internal/store
	$(GO) test -race -count=1 -run 'TestBudgetedStore|TestCrashedStore|TestEngineStatsExposeStoreLifecycle' ./internal/engine
	$(GO) test -race -count=1 -run 'TestHealthzReportsDegradedStore|TestMetricsExposeStoreLifecycle|TestMetricsWithoutStore' ./internal/service

# ci is the gate for every change: formatting and static checks (vet plus
# the repository's own uopslint suite), the full test suite under the race
# detector (the characterization scheduler, the engine and the service are
# concurrent), a one-iteration pass over every benchmark, the
# benchmark-trajectory pipeline smoke, the hot-path ns/op regression gate,
# the command-level cache/backend/service checks and command smokes, the
# distributed-fleet suite, and the store fault-injection suite.
ci: fmt-check vet lint race bench-smoke bench-json-smoke bench-guard ci-cmd ci-service ci-fleet ci-faults
