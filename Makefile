# C²-Bound reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint lint-json lint-suppressions test test-short race race-heavy check bench bench-json bench-engine bench-families bench-obs bench-server bench-tenants bench-cluster serve figures figures-full examples cover fuzz-short clean

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

# Audit `//lint:allow` comments: list directives that suppress nothing.
lint-suppressions:
	$(GO) run ./cmd/c2vet -suppressions ./...

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

# Engine throughput (cold vs warm memo cache) as JSON for trend tracking.
bench-json:
	$(GO) run ./cmd/enginebench -out BENCH_engine.json

# Batched vs scalar dispatch: the same sweep on both engine paths, with
# bit-identity verified and allocations per point recorded (see
# DESIGN.md §12). Fails if any value differs by a single bit.
bench-engine:
	$(GO) run ./cmd/enginebench -batch -out BENCH_engine.json

# Every registered model family on the per-request scalar path vs the
# compiled batched path, bit-identity verified per family (see
# DESIGN.md §14). Fails if any family's values diverge by a single bit.
bench-families:
	$(GO) run ./cmd/enginebench -families -out BENCH_families.json

# Observability cost: the same benchmark with the tracer and metrics
# registry disabled vs enabled, side by side (see DESIGN.md §9).
bench-obs:
	$(GO) run ./cmd/enginebench -per 5 -rounds 5 -obs BENCH_obs.json

# HTTP serving path: concurrent clients batching through a loopback
# c2bound server, cold vs warm shared cache (see DESIGN.md §10).
bench-server:
	$(GO) run ./cmd/enginebench -server -per 4 -rounds 3 -clients 8 -out BENCH_server.json

# Multi-tenant isolation: a flooder tenant saturates the admission gate
# while a trickler sends 1 req/s; fails if the trickler is ever shed
# (see DESIGN.md §11).
bench-tenants:
	$(GO) run ./cmd/enginebench -tenants -clients 16 -duration 10s -out BENCH_tenants.json

# Distributed tier: 1..3 real c2bound-server processes sharing a
# consistent-hash ring, one full catalog sweep each — shard balance,
# warm hit-rate vs peer count and fan-out latency (see DESIGN.md §15).
# Fails on shard imbalance over 15% or a non-increasing warm hit rate.
bench-cluster:
	$(GO) run ./cmd/enginebench -cluster -cluster-peers 3 -per 4 -out BENCH_cluster.json

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

clean:
	$(GO) clean ./...
