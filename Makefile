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
# bench-guard enforces on the medians of the hot Run* benchmarks.
BENCH_GUARD_PCT ?= 30

.PHONY: build test vet race bench bench-smoke bench-json bench-json-smoke \
	bench-compare bench-guard fmt fmt-check lint lint-extra fuzz-smoke ci \
	ci-cmd ci-service ci-fleet ci-faults ci-bench run-uopsd

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
# core (port usage, latency, throughput of one variant on a warm stack), the
# store rungs (one per-variant save, rename-only and durable, and one
# per-variant load), the service-handler rung (one warm request through
# ServeHTTP: a variant, a 32-variant subset, the whole generation as JSON and
# as XML), the render rung (the whole Skylake results XML with its IACA
# analyzers into a sha256), the fleet wire rung (one /v1/measure request for
# a 257-instruction kernel at two copy counts, and one answer of two
# counters, each written and parsed), the harness rung (one Measure of that
# kernel, its two readings recalled from the reading table or simulated),
# and the end-to-end characterization benchmarks (bounded to 2 iterations — they
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
	$(GO) test -run='^$$' -bench='BenchmarkSaveVariant|BenchmarkLoadVariants' -benchmem -count=$(COUNT) ./internal/store >> "$$tmp"; \
	$(GO) test -run='^$$' -bench='BenchmarkServe' -benchmem -count=$(COUNT) ./internal/service >> "$$tmp"; \
	$(GO) test -run='^$$' -bench='BenchmarkRenderXML' -benchmem -count=$(COUNT) ./internal/xmlout >> "$$tmp"; \
	$(GO) test -run='^$$' -bench='BenchmarkWire' -benchmem -count=$(COUNT) ./internal/measure/remote >> "$$tmp"; \
	$(GO) test -run='^$$' -bench='BenchmarkMeasure' -benchmem -count=$(COUNT) ./internal/measure >> "$$tmp"; \
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
# times). With OLD=/NEW= it gates two saved bench outputs directly. Otherwise
# it builds the internal/pipesim test binaries of HEAD (from `git archive`)
# and of the working tree once each, runs them alternately for 5 rounds, so
# that host noise falls on both sides alike, and fails if the median ns/op
# of any benchmark present in both regresses more than BENCH_GUARD_PCT
# percent; a median ignores a round that noise slowed, which a mean did not
# (benchmarks that exist only on one side cannot regress and are reported
# but not gated). A tree whose internal/pipesim matches HEAD passes
# immediately without benchmarking, so the gate costs clean CI checkouts
# nothing.
bench-guard:
	@set -e; \
	if [ -n "$(OLD)" ] && [ -n "$(NEW)" ]; then \
		exec $(GO) run ./cmd/benchjson -compare -fail-above=$(BENCH_GUARD_PCT) $(OLD) $(NEW); fi; \
	if git diff --quiet HEAD -- internal/pipesim 2>/dev/null; then \
		echo "bench-guard: internal/pipesim unchanged vs HEAD; nothing to gate"; exit 0; fi; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/head"; git archive HEAD | tar -x -C "$$tmp/head"; \
	echo "bench-guard: building the benchmarks of HEAD and of the working tree..."; \
	( cd "$$tmp/head" && $(GO) test -c -o "$$tmp/old.test" ./internal/pipesim ); \
	$(GO) test -c -o "$$tmp/new.test" ./internal/pipesim; \
	for round in 1 2 3 4 5; do \
		echo "bench-guard: round $$round of 5"; \
		( cd "$$tmp/head/internal/pipesim" && "$$tmp/old.test" -test.run='^$$' -test.bench=BenchmarkRun -test.benchtime=0.3s ) >> "$$tmp/old.txt"; \
		( cd internal/pipesim && "$$tmp/new.test" -test.run='^$$' -test.bench=BenchmarkRun -test.benchtime=0.3s ) >> "$$tmp/new.txt"; \
	done; \
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

# fuzz-smoke runs every native fuzz target for 10 s each (not raced):
# FuzzRunCopies holds the simulator's RunCopies, reading table included, to
# Run on materialized copies for two kernels on one Machine and, with a
# second generation byte, on a Machine of that generation sharing its
# table, errors included;
# FuzzDecodeSeq holds the fleet worker's request parser to never
# panicking, to encoding/json's reading of every body it accepts, to its
# bounds and to re-reading what AppendRequest writes;
# FuzzParseResponse holds the fleet client's response parser to never
# panicking, to encoding/json's reading of every body it accepts, to
# accepting no counters entry of more than pipesim.MaxPorts port counts (a
# seed holds 17) and to re-reading what AppendResponse writes at the
# widest entry's port count;
# FuzzParseSequence holds the parser of cmd/analyze's kernels to never
# panicking and to re-reading its own printed output;
# FuzzRunOptionsFromRequest holds the service's query parsers (generation,
# ?format, ?only, ?quick) to never panicking and to canonical, re-parseable
# options; FuzzMeasureRequest holds the fleet worker's /v1/measure handler
# to never panicking, to 200 or 400, and to one counter per copy count of
# exactly one JSON request under the worker's fingerprint; FuzzLoadVariant
# holds the store's record decoding to never panicking, to hits that name
# the requested variant, and to quarantining every other miss except an
# empty file or a newer-version envelope; FuzzWrite holds the results-XML
# writer to encoding/xml's bytes for fuzzed strings, floats and bools;
# FuzzPortSetText holds the port-set key parser, which reads every
# port-usage key of a stored variant record, to never panicking and to
# accepting exactly the keys uarch.PortSet writes, each read back as its
# set. A crashing input lands in the package's testdata/fuzz and fails the
# run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRunCopies$$' -fuzztime=10s ./internal/pipesim
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSeq$$' -fuzztime=10s ./internal/measure/remote
	$(GO) test -run='^$$' -fuzz='^FuzzParseResponse$$' -fuzztime=10s ./internal/measure/remote
	$(GO) test -run='^$$' -fuzz='^FuzzParseSequence$$' -fuzztime=10s ./internal/asmgen
	$(GO) test -run='^$$' -fuzz='^FuzzRunOptionsFromRequest$$' -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzMeasureRequest$$' -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzLoadVariant$$' -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzWrite$$' -fuzztime=10s ./internal/xmlout
	$(GO) test -run='^$$' -fuzz='^FuzzPortSetText$$' -fuzztime=10s ./internal/uarch

# ci-cmd re-runs the command-level cache determinism tests (mixed warm/cold
# and incremental per-variant deletion) under the race detector, checks
# that the backend registry lists the default pipesim backend through the
# actual CLI surface, and smokes the four commands that have no tests of
# their own — including contradicting engine flags (-fleet next to
# -backend pipesim), which must exit non-zero before any fleet handshake
# and name -backend.
ci-cmd:
	$(GO) test -race -run 'TestCacheColdWarmByteIdentical|TestCacheIncrementalEviction' ./cmd/uopsinfo
	$(GO) run ./cmd/uopsinfo -backends | grep -q '^pipesim' || \
		{ echo "uopsinfo -backends does not list pipesim"; exit 1; }
	echo 'ADD RAX, RBX' | $(GO) run ./cmd/analyze -arch Skylake
	$(GO) run ./cmd/table1 -arch Skylake -sample 400 -j 2
	$(GO) run ./cmd/iacadiff -arch Skylake -sample 400 -j 2
	$(GO) run ./cmd/casestudies -id 7.3.1 -j 2
	@stderr=$$($(GO) run ./cmd/casestudies -fleet http://127.0.0.1:1 -backend pipesim 2>&1 >/dev/null) && \
		{ echo "casestudies accepted -fleet with -backend pipesim"; exit 1; }; \
	echo "$$stderr" | grep -q -- '-backend' || \
		{ echo "casestudies flag error does not name -backend: $$stderr"; exit 1; }

# run-uopsd starts the characterization service on its default address
# (localhost:8631) with a local cache directory, the quickest way to poke the
# HTTP API by hand.
run-uopsd:
	$(GO) run ./cmd/uopsd -cache .uopsd-cache -v

# ci-service gates the HTTP characterization service under the race
# detector: the endpoint suite (the deterministic coalescing storm,
# conditional GETs, rate limiting, and the panic/format/client-gone
# regressions, the hang-up of the request that started a run included, and
# the 503 of a run cancelled under a waiting client), then the end-to-end
# TestUopsd* suite that binds the real uopsd server to an ephemeral port —
# coalescing storm, conditional GETs and /metrics, rate-limit flags, and
# shutdown while a run whose client hung up is still measuring, and while a
# client still waits past -drain (answered 503, clean exit).
ci-service:
	$(GO) test -race -count=1 ./internal/service
	$(GO) test -race -count=1 -run 'TestUopsd' ./cmd/uopsd

# ci-fleet gates the distributed measurement fleet under the race detector:
# the remote backend's unit suite (the wire codec's roundtrip of one kernel
# with its copy counts and its allocations, the fingerprint and
# wire-version handshake, one request per RunCopies call and at most
# InFlight in flight, retries, oversized answers, health probing and call
# timeouts against canned workers that read and write through
# encoding/json), then
# the loopback end-to-end tests — XML byte-identical to a local run through
# 1/2/3 real workers, recovery from a worker killed mid-run, a
# mixed-fingerprint fleet refused at startup, fleet counters in /v1/stats
# and /metrics, the /v1/measure instruction budget — and the -fleet flag
# through the uopsinfo CLI and a uopsd front tier. The codec's fuzz
# targets run in fuzz-smoke.
ci-fleet:
	$(GO) test -race -count=1 ./internal/measure/remote
	$(GO) test -race -count=1 -run 'TestFleet|TestMeasureEndpoint|TestMeasureBudget' ./internal/service
	$(GO) test -race -count=1 -run 'TestFleetFlagMatchesLocal' ./cmd/uopsinfo
	$(GO) test -race -count=1 -run 'TestUopsdFleetFrontTier' ./cmd/uopsd

# ci-faults forces every durability claim the store makes through the
# fault-injecting filesystem (internal/store/errfs) under the race detector:
# torn writes, ENOSPC mid-save, writers killed between temp-write, fsync and
# rename, concurrent writers of one entry, the startup sweep of stores older
# versions wrote, degradation to read-only/compute-only and probe-driven
# recovery — plus the engine plumbing (byte-identical XML against a dead
# store, corruption surfaced in engine stats) and the /healthz + /metrics
# degradation surface.
ci-faults:
	$(GO) test -race -count=1 ./internal/store
	$(GO) test -race -count=1 -run 'TestCrashedStore|TestEngineStatsExposeStoreLifecycle' ./internal/engine
	$(GO) test -race -count=1 -run 'TestHealthzReportsDegradedStore|TestMetricsExposeStoreLifecycle|TestMetricsWithoutStore' ./internal/service

# ci-bench vets and tests the end-to-end benchmark. cmd/uopsbench is its own
# Go module, so the root `go build ./...` and `go test ./...` never compile
# it; its tests smoke every workload, fleet-loopback included, against the
# golden XML digests. A change that drops a name the benchmark reads fails
# here, not first when the benchmark is built.
ci-bench:
	cd cmd/uopsbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# ci is the gate for every change: formatting and static checks (vet plus
# the repository's own uopslint suite), the full test suite under the race
# detector (the characterization scheduler, the engine and the service are
# concurrent), a one-iteration pass over every benchmark, the
# benchmark-trajectory pipeline smoke, the hot-path ns/op regression gate,
# a bounded run of every fuzz target, the command-level
# cache/backend/service checks and command smokes, the distributed-fleet
# suite, the store fault-injection suite, and a vet and test pass over the
# end-to-end benchmark module.
ci: fmt-check vet lint race bench-smoke bench-json-smoke bench-guard fuzz-smoke ci-cmd ci-service ci-fleet ci-faults ci-bench
