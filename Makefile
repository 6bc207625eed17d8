# C²-Bound reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint lint-json lint-suppressions test test-short race race-heavy check bench bench-smoke bench-cluster serve figures figures-full examples cover fuzz-short clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (see DESIGN.md §8 and §13): the twelve
# c2vet analyzers — floatguard, errwrap, ctxflow, httpctx, outboundctx,
# ctxsleep, enginepath, batchpar, paramdomain and the interprocedural
# detguard, atomicguard and leakcheck — over every package. Exit 1 means findings,
# exit 2 means the packages did not load or type-check.
lint:
	$(GO) run ./cmd/c2vet ./...

# The same findings as one stable JSON document (CI artifact).
lint-json:
	$(GO) run ./cmd/c2vet -json ./... > c2vet.json

# Audit `//lint:allow` comments: list directives that suppress nothing,
# and fail when the live ones outnumber SUPPRESSION_CEILING. The ceiling
# is a ratchet: lower it when suppressions go, never raise it.
SUPPRESSION_CEILING = 52

lint-suppressions:
	@out=$$($(GO) run ./cmd/c2vet -suppressions ./...); status=$$?; echo "$$out"; \
	[ $$status -eq 0 ] || exit $$status; \
	live=$$(echo "$$out" | sed -n 's|^\([0-9][0-9]*\) live //lint:allow.*|\1|p'); \
	if [ -z "$$live" ] || [ "$$live" -gt $(SUPPRESSION_CEILING) ]; then \
		echo "lint-suppressions: $$live live //lint:allow directives exceed the ceiling of $(SUPPRESSION_CEILING)" >&2; \
		exit 1; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The concurrency-heavy packages under the race detector with
# first-race-aborts semantics: a race here fails fast and loud instead
# of scrolling past in a full-suite log. CI runs this as its own job.
race-heavy:
	GORACE=halt_on_error=1 $(GO) test -race ./internal/engine ./internal/server ./internal/obs ./internal/dse

# The full pre-merge gate: build, vet, the c2vet analyzers (findings and
# stale suppressions), tests, and the race detector.
check: build vet lint lint-suppressions test race

# One iteration of every figure/table benchmark with its headline metric.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run XXX .

# One iteration of every engine, server and obs benchmark (BenchmarkWarmHit,
# BenchmarkBatchStream, BenchmarkBatchHandler, ...), so the benchmarks the
# docs quote keep compiling and running.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/engine ./internal/server ./internal/obs

# Distributed tier: 1..3 real c2bound-server processes sharing a
# consistent-hash ring, one full catalog sweep each — shard balance,
# warm hit-rate vs peer count and fan-out latency (see DESIGN.md §15).
# Fails on shard imbalance over 15%, any local-fallback point or a
# non-increasing warm hit rate.
bench-cluster:
	$(GO) run ./cmd/clusterbench -peers 3 -per 4 -out BENCH_cluster.json

# Run the evaluation service locally on :8080.
serve:
	$(GO) run ./cmd/c2bound-server -addr :8080

figures:
	$(GO) run ./cmd/figures

# Paper-scale DSE: 10 values per dimension (10^6 configurations).
figures-full:
	$(GO) run ./cmd/figures -full -only fig12

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scaling
	$(GO) run ./examples/scheduling
	$(GO) run ./examples/detector
	$(GO) run ./examples/energy
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/dse

cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# A quick shake of every fuzz target (one target per go test invocation).
fuzz-short:
	$(GO) test -run XXX -fuzz FuzzNewton1D -fuzztime 10s ./internal/solve
	$(GO) test -run XXX -fuzz FuzzNelderMead -fuzztime 10s ./internal/solve
	$(GO) test -run XXX -fuzz FuzzAnalyze -fuzztime 10s ./internal/camat
	$(GO) test -run XXX -fuzz FuzzSerializeIdempotent -fuzztime 10s ./internal/camat
	$(GO) test -run XXX -fuzz FuzzDetectorMatchesBatch -fuzztime 10s ./internal/detector
	$(GO) test -run XXX -fuzz FuzzBatchPointsDecode -fuzztime 10s ./internal/server
	$(GO) test -run XXX -fuzz FuzzBatchLineEncode -fuzztime 10s ./internal/server
	$(GO) test -run XXX -fuzz FuzzResolveRequests -fuzztime 10s ./internal/server
	$(GO) test -run XXX -fuzz FuzzSnapshotLoad -fuzztime 10s ./internal/engine
	$(GO) test -run XXX -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/dse
	$(GO) test -run XXX -fuzz FuzzDecodePeerEval -fuzztime 10s ./internal/cluster
	$(GO) test -run XXX -fuzz FuzzLoadTenantsFile -fuzztime 10s ./internal/server
	$(GO) test -run XXX -fuzz FuzzLoadPeersFile -fuzztime 10s ./internal/cluster

clean:
	$(GO) clean ./...
